//! Consumer-group coordination: membership, generations, and sticky
//! cooperative partition assignment.
//!
//! The coordinator reproduces the Kafka group-membership semantics the
//! benchmark's engine connectors rely on, scaled down to an in-process
//! broker:
//!
//! * A **group** is a named set of members subscribed to topics. Every
//!   membership change bumps a **generation** number; clients detect a
//!   rebalance by comparing generations, exactly as Kafka consumers do
//!   with `group.generation.id`.
//! * Assignment is **sticky**: on a rebalance each surviving member keeps
//!   as many of its previously targeted partitions as its new quota
//!   allows, so a member joining or leaving moves the minimum number of
//!   partitions. What retention leaves over is placed as contiguous
//!   blocks per member, like Kafka's range assignor.
//! * Handover is **cooperative**: a rebalance only *retargets* partitions.
//!   The previous owner keeps serving a partition until it observes the
//!   new generation, commits its position, and releases; only then can the
//!   new target claim it. Readers therefore never observe a partition
//!   with two concurrent owners, and committed offsets hand position over
//!   exactly once.
//!
//! The protocol is written once, here. [`GroupState`] is one group's
//! coordinator bookkeeping, [`Coordinator`] the sharded map of groups
//! (state plus committed offsets) that a [`Broker`](crate::Broker) and a
//! [`Cluster`](crate::Cluster) each own one of, [`GroupMember`] is the
//! one client of the protocol — the join → poll → revoke/claim cycle
//! with callbacks — and [`GroupedReader`] the one read drive on top of
//! it, which every engine connector calls. The bus is not a second
//! copy: it only hands its coordinator out, behind its own liveness
//! rule (and, for a commit, its topic check and metadata fault gate),
//! and the client calls the coordinator directly. The coordinator's
//! rebalance calls are private to this module, so the compiler keeps
//! [`GroupMember`] the only client.

use crate::broker::{shard_index, MAP_SHARDS};
use crate::bus::BusHandle;
use crate::error::{Error, Result};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A (topic, partition) coordinate, the unit of group assignment.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TopicPartition {
    /// Topic name.
    pub topic: String,
    /// Partition index within the topic.
    pub partition: u32,
}

impl TopicPartition {
    /// Creates a new coordinate.
    pub fn new(topic: impl Into<String>, partition: u32) -> Self {
        TopicPartition {
            topic: topic.into(),
            partition,
        }
    }
}

impl std::fmt::Display for TopicPartition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}-{}", self.topic, self.partition)
    }
}

/// A member's view of the group after a sync: the current generation and
/// the partitions targeted at this member.
#[derive(Debug, Clone, PartialEq, Eq)]
struct GroupView {
    /// Generation the target assignment belongs to.
    generation: u64,
    /// Partitions this member should own once previous owners release.
    target: Vec<TopicPartition>,
}

/// Broker-side per-member bookkeeping.
#[derive(Debug, Clone)]
struct MemberState {
    /// Subscribed topics with their partition counts, resolved at join
    /// time so assignment never needs the topic shard locks.
    topics: Vec<(String, u32)>,
    /// Partitions targeted at this member in the current generation.
    target: Vec<TopicPartition>,
}

/// Broker-side coordinator state for one group.
///
/// All methods are pure bookkeeping; the enclosing
/// [`Broker`](crate::Broker) serialises calls under the group shard lock,
/// so no method here takes any other lock (the PR 5 lock-order graph
/// stays a forest).
#[derive(Debug, Default)]
struct GroupState {
    /// Bumped on every membership change.
    generation: u64,
    /// Live members, keyed by member id (sorted for deterministic
    /// assignment).
    members: BTreeMap<String, MemberState>,
    /// Current owner of each partition; owners lag targets during a
    /// cooperative handover.
    owned: BTreeMap<TopicPartition, String>,
}

impl GroupState {
    /// Adds or re-registers a member and recomputes targets.
    ///
    /// Returns the new generation. Re-joining with changed subscriptions
    /// still bumps the generation (subscription changes retarget
    /// partitions just like membership changes).
    fn join(&mut self, member: &str, topics: Vec<(String, u32)>) -> u64 {
        self.members.insert(
            member.to_string(),
            MemberState {
                topics,
                target: Vec::new(),
            },
        );
        self.bump_and_retarget();
        self.generation
    }

    /// Removes a member, releasing everything it owned, and recomputes
    /// targets. Returns `false` if the member was not in the group.
    fn leave(&mut self, member: &str) -> bool {
        if self.members.remove(member).is_none() {
            return false;
        }
        self.owned.retain(|_, owner| owner != member);
        self.bump_and_retarget();
        true
    }

    /// Current generation (0 before the first join).
    fn generation(&self) -> u64 {
        self.generation
    }

    /// The member's target assignment at the current generation, or
    /// `None` for a non-member.
    fn view(&self, member: &str) -> Option<GroupView> {
        self.members.get(member).map(|m| GroupView {
            generation: self.generation,
            target: m.target.clone(),
        })
    }

    /// Grants ownership of every requested partition that is targeted at
    /// `member` and not currently owned by someone else. Returns the
    /// granted subset; the caller retries for the remainder once previous
    /// owners release.
    fn claim(&mut self, member: &str, parts: &[TopicPartition]) -> Vec<TopicPartition> {
        let Some(state) = self.members.get(member) else {
            return Vec::new();
        };
        let mut granted = Vec::new();
        for tp in parts {
            if !state.target.contains(tp) {
                continue;
            }
            match self.owned.get(tp) {
                Some(owner) if owner != member => continue,
                _ => {
                    self.owned.insert(tp.clone(), member.to_string());
                    granted.push(tp.clone());
                }
            }
        }
        granted
    }

    /// Releases ownership of the given partitions if held by `member`.
    fn release(&mut self, member: &str, parts: &[TopicPartition]) {
        for tp in parts {
            if self.owned.get(tp).is_some_and(|owner| owner == member) {
                self.owned.remove(tp);
            }
        }
    }

    /// Bumps the generation and recomputes every member's target with the
    /// sticky balanced assignor.
    fn bump_and_retarget(&mut self) {
        self.generation += 1;

        // Remember previous targets for stickiness, then clear.
        let previous: BTreeMap<TopicPartition, String> = self
            .members
            .iter()
            .flat_map(|(id, m)| m.target.iter().map(move |tp| (tp.clone(), id.clone())))
            .collect();
        for m in self.members.values_mut() {
            m.target.clear();
        }

        // Union of subscribed topics with partition counts.
        let mut topics: BTreeMap<String, u32> = BTreeMap::new();
        for m in self.members.values() {
            for (topic, count) in &m.topics {
                let entry = topics.entry(topic.clone()).or_insert(*count);
                *entry = (*entry).max(*count);
            }
        }

        for (topic, count) in &topics {
            self.retarget_topic(topic, *count, &previous);
        }
    }

    /// Distributes one topic's partitions across its subscribers:
    /// sticky retention up to quota, then a contiguous (range) fill.
    fn retarget_topic(
        &mut self,
        topic: &str,
        count: u32,
        previous: &BTreeMap<TopicPartition, String>,
    ) {
        let subscribers: Vec<String> = self
            .members
            .iter()
            .filter(|(_, m)| m.topics.iter().any(|(t, _)| t == topic))
            .map(|(id, _)| id.clone())
            .collect();
        if subscribers.is_empty() {
            return;
        }
        let n = count as usize;
        let (base, extra) = (n / subscribers.len(), n % subscribers.len());
        // Sorted member order decides who absorbs the remainder, so the
        // quota vector is deterministic across brokers and reruns.
        let quota: Vec<usize> = (0..subscribers.len())
            .map(|i| base + usize::from(i < extra))
            .collect();
        // Partitions per subscriber, by position in `subscribers`.
        let mut assigned: Vec<Vec<u32>> = vec![Vec::new(); subscribers.len()];

        // Pass 1 — sticky retention: a partition stays with its previous
        // target while that member is still subscribed and under quota.
        let mut unassigned: Vec<u32> = Vec::new();
        for p in 0..count {
            let keeper = previous
                .get(&TopicPartition::new(topic, p))
                .and_then(|id| subscribers.iter().position(|s| s == id))
                .filter(|&i| assigned[i].len() < quota[i]);
            match keeper {
                Some(i) => assigned[i].push(p),
                None => unassigned.push(p),
            }
        }

        // Pass 2 — fill members below quota with the leftovers as
        // contiguous blocks: walk members in order, give each its
        // remaining quota as one run of partitions.
        let mut rest = unassigned.into_iter();
        for (parts, quota) in assigned.iter_mut().zip(&quota) {
            let want = quota - parts.len();
            parts.extend(rest.by_ref().take(want));
        }
        for (id, parts) in subscribers.iter().zip(assigned) {
            if let Some(member) = self.members.get_mut(id) {
                let parts = parts.into_iter().map(|p| TopicPartition::new(topic, p));
                member.target.extend(parts);
            }
        }
    }
}

/// Everything tracked per consumer group — committed offsets plus
/// coordinator state — kept in one entry so a lookup touches exactly one
/// shard lock.
#[derive(Debug, Default)]
struct GroupEntry {
    /// Committed offsets, nested `topic -> partition -> offset` so
    /// lookups borrow the caller's `&str`s instead of allocating a
    /// composite key per call.
    offsets: HashMap<String, HashMap<u32, u64>>,
    /// Membership, generation, and target assignment.
    state: GroupState,
}

/// The group coordinator: every group's entry, sharded by group name so
/// concurrent groups never contend on a map lock. Each operation takes
/// exactly one shard lock and no other lock.
///
/// A [`Broker`](crate::Broker) and a [`Cluster`](crate::Cluster) — where
/// this is the replicated `__consumer_offsets` state — each own one and
/// hand it out through the bus's one coordinator accessor, behind their
/// own liveness rule. Only [`Bus::committed_offset`] reads it outside
/// this module; every other operation is private to it, so
/// [`GroupMember`] is the only client of the rebalance protocol the
/// compiler admits.
///
/// `pub` only so the sealed accessor can name it; the module is private.
#[derive(Debug)]
pub struct Coordinator {
    shards: [RwLock<HashMap<String, GroupEntry>>; MAP_SHARDS],
}

impl Default for Coordinator {
    fn default() -> Self {
        Coordinator {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
        }
    }
}

impl Coordinator {
    fn shard(&self, group: &str) -> &RwLock<HashMap<String, GroupEntry>> {
        &self.shards[shard_index(group)]
    }

    /// Counts one membership change.
    fn note_rebalance(generation: u64) {
        if obs::enabled() {
            let path = crate::telemetry::group_path();
            path.rebalances.add(1);
            path.generation.set(generation as i64);
        }
    }

    /// Commits `offset` for `group`. The steady-state commit borrows the
    /// caller's `&str`s; the group and topic key strings are allocated
    /// only on their first commit.
    fn commit(&self, group: &str, topic: &str, partition: u32, offset: u64) {
        let mut shard = self.shard(group).write();
        let known = shard
            .get_mut(group)
            .and_then(|entry| entry.offsets.get_mut(topic));
        if let Some(partitions) = known {
            partitions.insert(partition, offset);
            return;
        }
        let entry = shard.entry(group.to_string()).or_default();
        let partitions = entry.offsets.entry(topic.to_string()).or_default();
        partitions.insert(partition, offset);
    }

    /// The committed offset, if any. Allocation-free.
    pub(crate) fn committed(&self, group: &str, topic: &str, partition: u32) -> Option<u64> {
        self.shard(group)
            .read()
            .get(group)?
            .offsets
            .get(topic)?
            .get(&partition)
            .copied()
    }

    /// Joins `member` with pre-resolved partition counts; returns the new
    /// generation.
    fn join(&self, group: &str, member: &str, topics_with_counts: Vec<(String, u32)>) -> u64 {
        let generation = self
            .shard(group)
            .write()
            .entry(group.to_string())
            .or_default()
            .state
            .join(member, topics_with_counts);
        Self::note_rebalance(generation);
        generation
    }

    /// Removes `member`; a no-op for unknown groups or non-members.
    fn leave(&self, group: &str, member: &str) {
        let left = self
            .shard(group)
            .write()
            .get_mut(group)
            .and_then(|entry| entry.state.leave(member).then(|| entry.state.generation()));
        if let Some(generation) = left {
            Self::note_rebalance(generation);
        }
    }

    /// The group's current generation (0 before the first join).
    fn generation(&self, group: &str) -> u64 {
        self.shard(group)
            .read()
            .get(group)
            .map_or(0, |entry| entry.state.generation())
    }

    /// `member`'s target assignment at the current generation.
    fn sync(&self, group: &str, member: &str) -> Result<GroupView> {
        self.shard(group)
            .read()
            .get(group)
            .and_then(|entry| entry.state.view(member))
            .ok_or_else(|| Error::UnknownGroup(group.to_string()))
    }

    /// Claims targeted partitions; returns the granted subset.
    fn claim(
        &self,
        group: &str,
        member: &str,
        parts: &[TopicPartition],
    ) -> Result<Vec<TopicPartition>> {
        let mut shard = self.shard(group).write();
        let Some(entry) = shard.get_mut(group) else {
            return Err(Error::UnknownGroup(group.to_string()));
        };
        Ok(entry.state.claim(member, parts))
    }

    /// Releases partitions held by `member`; a no-op for unknown groups.
    fn release(&self, group: &str, member: &str, parts: &[TopicPartition]) {
        if let Some(entry) = self.shard(group).write().get_mut(group) {
            entry.state.release(member, parts);
        }
    }
}

/// Client-side group membership: the only implementation of the
/// revoke → commit → release → claim protocol. The lifecycle:
///
/// 1. [`GroupMember::join`] registers with the coordinator.
/// 2. Each poll loop calls [`GroupMember::poll_rebalance`] with revoke
///    and assign callbacks. On a generation change the member commits and
///    releases partitions it must give up (the revoke callback runs
///    *before* release, so positions are committed first — this is what
///    makes handover exactly-once), then claims newly targeted
///    partitions as their previous owners release them.
/// 3. [`GroupMember::leave`] deregisters and releases everything.
#[derive(Debug)]
pub struct GroupMember {
    bus: BusHandle,
    group: String,
    member: String,
    generation: u64,
    owned: Vec<TopicPartition>,
    /// True while the member still has unclaimed targets (previous
    /// owners have not released yet) and must re-sync next poll.
    pending: bool,
    left: bool,
}

impl GroupMember {
    /// Joins `group` under `member` id, subscribing to `topics`.
    pub fn join(
        bus: impl Into<BusHandle>,
        group: impl Into<String>,
        member: impl Into<String>,
        topics: &[&str],
    ) -> Result<Self> {
        let bus = bus.into();
        let group = group.into();
        let member = member.into();
        // Partition counts are resolved before the join, so the
        // coordinator never takes a topic lock.
        let coordinator = bus.coordinator(None)?;
        let mut with_counts = Vec::with_capacity(topics.len());
        for name in topics {
            with_counts.push(((*name).to_string(), bus.partition_count(name)?));
        }
        coordinator.join(&group, &member, with_counts);
        Ok(GroupMember {
            bus,
            group,
            member,
            generation: 0,
            owned: Vec::new(),
            pending: true,
            left: false,
        })
    }

    /// Member id.
    pub fn member_id(&self) -> &str {
        &self.member
    }

    /// Generation of the last synced assignment.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Partitions currently owned by this member.
    pub fn owned(&self) -> &[TopicPartition] {
        &self.owned
    }

    /// Reconciles this member with the coordinator.
    ///
    /// Cheap when nothing changed: one generation read. On a generation
    /// change (or while claims are still pending) the member syncs its
    /// target, hands over partitions it lost — `on_revoke` runs before
    /// the release so the callback can commit positions — and claims
    /// whatever it gained that previous owners have released.
    ///
    /// Returns `true` if ownership changed.
    pub fn poll_rebalance(
        &mut self,
        mut on_revoke: impl FnMut(&[TopicPartition]) -> Result<()>,
        mut on_assign: impl FnMut(&[TopicPartition]) -> Result<()>,
    ) -> Result<bool> {
        if self.left {
            return Ok(false);
        }
        let (bus, group, member) = (&self.bus, self.group.as_str(), self.member.as_str());
        let current = bus.coordinator(None)?.generation(group);
        if current == self.generation && !self.pending {
            return Ok(false);
        }
        let view = bus.coordinator(None)?.sync(group, member)?;

        // Revoke: everything owned but no longer targeted. Commit (via
        // the callback) before releasing so the next owner resumes from
        // our position.
        let revoked: Vec<TopicPartition> = self
            .owned
            .iter()
            .filter(|tp| !view.target.contains(tp))
            .cloned()
            .collect();
        if !revoked.is_empty() {
            on_revoke(&revoked)?;
            bus.coordinator(None)?.release(group, member, &revoked);
            self.owned.retain(|tp| view.target.contains(tp));
        }

        // Claim: everything targeted but not yet owned. Grants may be
        // partial while previous owners still hold on; stay pending and
        // retry next poll.
        let wanted: Vec<TopicPartition> = view
            .target
            .iter()
            .filter(|tp| !self.owned.contains(tp))
            .cloned()
            .collect();
        let granted = if wanted.is_empty() {
            Vec::new()
        } else {
            bus.coordinator(None)?.claim(group, member, &wanted)?
        };
        if !granted.is_empty() {
            if let Err(err) = on_assign(&granted) {
                // Hand back what the callback could not take up: the
                // grant is not in `owned`, so no later revoke would
                // release it and the next owner would wait forever.
                bus.coordinator(None)?.release(group, member, &granted);
                return Err(err);
            }
            self.owned.extend(granted.iter().cloned());
            self.owned.sort();
        }

        self.generation = view.generation;
        self.pending = self.owned.len() < view.target.len();
        Ok(!revoked.is_empty() || !granted.is_empty())
    }

    /// Leaves the group, releasing all owned partitions. Idempotent.
    pub fn leave(&mut self) -> Result<()> {
        if self.left {
            return Ok(());
        }
        let (bus, group, member) = (&self.bus, self.group.as_str(), self.member.as_str());
        if !self.owned.is_empty() {
            let owned = std::mem::take(&mut self.owned);
            bus.coordinator(None)?.release(group, member, &owned);
        }
        bus.coordinator(None)?.leave(group, member);
        self.left = true;
        Ok(())
    }
}

/// Commits `offset` for `group` under `retry`: each attempt passes the
/// bus's commit gate (liveness, topic check, metadata fault gate) before
/// the coordinator records it.
fn commit(
    bus: &BusHandle,
    retry: &crate::RetryPolicy,
    group: &str,
    topic: &str,
    partition: u32,
    offset: u64,
) -> Result<()> {
    crate::with_retry(retry, || {
        let coordinator = bus.coordinator(Some((topic, partition)))?;
        coordinator.commit(group, topic, partition, offset);
        Ok(())
    })
}

/// Monotonic suffix for auto-generated group names and member ids.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// A read that delivers nothing for this long gives up: the peer that
/// owns the rest died mid-handover, or the sender stopped short of the
/// follow target. A stalled trial then fails verification instead of
/// hanging the driver.
const STALL_LIMIT: Duration = Duration::from_secs(10);

/// The finish line of a follow read: a record count, and the counter of
/// records emitted towards it. Clones share the counter, so the members
/// one job creates (rill's subtasks) stop at `target` *together*; a
/// reader given a fresh `FollowTarget` counts alone.
#[derive(Debug, Clone)]
pub struct FollowTarget {
    target: u64,
    emitted: Arc<AtomicU64>,
}

impl FollowTarget {
    /// A finish line of `target` records with nothing emitted yet.
    pub fn new(target: u64) -> Self {
        FollowTarget {
            target,
            emitted: Arc::new(AtomicU64::new(0)),
        }
    }

    fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::SeqCst)
    }

    /// Claims up to `want` of the records still missing and returns how
    /// many were granted. Reserving *before* the fetch is what keeps the
    /// members' total at or below `target`; what the fetch then does not
    /// deliver goes back through [`FollowTarget::refund`].
    fn reserve(&self, want: u64) -> u64 {
        let mut granted = 0;
        let _ = self
            .emitted
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |emitted| {
                granted = want.min(self.target.saturating_sub(emitted));
                Some(emitted + granted)
            });
        granted
    }

    fn refund(&self, unused: u64) {
        self.emitted.fetch_sub(unused, Ordering::SeqCst);
    }
}

/// Where a [`GroupedReader`] stops.
#[derive(Debug)]
enum Finish {
    /// Bounded: the per-partition end offsets captured at join.
    Ends(Vec<u64>),
    /// Follow: ends refresh on every pass until the target is emitted.
    Follow(FollowTarget),
}

/// The one read drive of the workspace: a [`GroupMember`] plus fetch
/// cursors for whatever the coordinator currently assigns it, driven by
/// [`GroupedReader::next_batch`] to one of two finish lines — *bounded*
/// (the end offsets captured at join) or *follow* (a [`FollowTarget`]).
/// All four engine connectors build one and call `next_batch` until it
/// returns `None`; rebalance, end refresh, capping, fetch, commit, the
/// stall exit and [`Backoff`](crate::Backoff) are sequenced here only.
///
/// Positions hand over through committed offsets: on revoke the cursor's
/// position is committed before the partition is released, and a newly
/// claimed partition resumes from its committed offset. A topic is
/// therefore read exactly once across the whole group, rebalances
/// included.
pub struct GroupedReader {
    bus: BusHandle,
    topic: String,
    group: String,
    member: GroupMember,
    cursors: Vec<GroupCursor>,
    finish: Finish,
    /// Retry schedule for offset commits (fetches retry inside the
    /// cursors' readers).
    retry: crate::RetryPolicy,
    /// Fetch buffer reused across passes.
    fetch_buffer: Vec<crate::StoredRecord>,
}

#[derive(Debug)]
struct GroupCursor {
    partition: u32,
    reader: crate::PartitionReader,
    position: u64,
    end: u64,
}

impl std::fmt::Debug for GroupedReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupedReader")
            .field("topic", &self.topic)
            .field("group", &self.group)
            .field("member", &self.member.member_id())
            .field("generation", &self.member.generation())
            .field("cursors", &self.cursors)
            .field("finish", &self.finish)
            .finish_non_exhaustive()
    }
}

impl GroupedReader {
    /// A group name no other caller of this function gets: `prefix` plus
    /// a process-wide sequence number. Connectors that need no shared
    /// offsets name their group with this.
    pub fn fresh_group(prefix: &str) -> String {
        format!("{prefix}-{}", NEXT_ID.fetch_add(1, Ordering::Relaxed))
    }

    /// Joins `group` for a bounded read of `topic`: the finish line is
    /// the per-partition end offsets current at join.
    ///
    /// # Errors
    ///
    /// Fails when the topic does not exist or the coordinator rejects
    /// the join after retries.
    pub fn bounded(
        bus: impl Into<BusHandle>,
        topic: impl Into<String>,
        group: impl Into<String>,
    ) -> Result<Self> {
        let (bus, topic) = (bus.into(), topic.into());
        let retry = crate::RetryPolicy::default();
        let count = crate::with_retry(&retry, || bus.partition_count(&topic))?;
        let ends = (0..count)
            .map(|p| crate::with_retry(&retry, || bus.latest_offset(&topic, p)))
            .collect::<Result<Vec<u64>>>()?;
        Self::join(bus, topic, group.into(), Finish::Ends(ends))
    }

    /// Joins `group` for a tailing read: ends refresh on every pass, so
    /// records appended after the join are part of the stream, and the
    /// read finishes once `target` has been emitted.
    ///
    /// # Errors
    ///
    /// Fails when the topic does not exist or the coordinator rejects
    /// the join after retries.
    pub fn following(
        bus: impl Into<BusHandle>,
        topic: impl Into<String>,
        group: impl Into<String>,
        target: FollowTarget,
    ) -> Result<Self> {
        let finish = Finish::Follow(target);
        Self::join(bus.into(), topic.into(), group.into(), finish)
    }

    fn join(bus: BusHandle, topic: String, group: String, finish: Finish) -> Result<Self> {
        let retry = crate::RetryPolicy::default();
        let member_id = Self::fresh_group(&format!("{group}-reader"));
        let member = crate::with_retry(&retry, || {
            GroupMember::join(bus.clone(), &group, &member_id, &[&topic])
        })?;
        let mut reader = GroupedReader {
            bus,
            topic,
            group,
            member,
            cursors: Vec::new(),
            finish,
            retry,
            fetch_buffer: Vec::new(),
        };
        // Best-effort initial claim: a transient fault here just leaves
        // the cursors to be built on the next poll.
        let _ = reader.poll_rebalance();
        Ok(reader)
    }

    /// Number of partitions currently owned.
    pub fn owned_partitions(&self) -> usize {
        self.cursors.len()
    }

    /// Reconciles with the coordinator: commits and drops cursors for
    /// revoked partitions, builds cursors (resuming from the committed
    /// offset) for newly claimed ones. One generation read when nothing
    /// changed.
    ///
    /// Returns `true` if ownership changed.
    ///
    /// # Errors
    ///
    /// Propagates coordinator faults; safe to retry on the next pass.
    pub fn poll_rebalance(&mut self) -> Result<bool> {
        let GroupedReader {
            bus,
            topic,
            group,
            member,
            cursors,
            finish,
            retry,
            ..
        } = self;
        // The callbacks run sequentially (revoke, then assign) but both
        // mutate the cursor set, so share it through a `RefCell`.
        let cursors = std::cell::RefCell::new(cursors);
        member.poll_rebalance(
            |revoked| {
                let mut cursors = cursors.borrow_mut();
                for tp in revoked {
                    let Some(i) = cursors.iter().position(|c| c.partition == tp.partition) else {
                        continue;
                    };
                    // Commit before release (the caller releases after
                    // this callback) so the next owner resumes from our
                    // position. The cursor goes only once the commit is
                    // in: a failed one fails the revoke with the position
                    // still here for the retry.
                    let (partition, position) = (cursors[i].partition, cursors[i].position);
                    commit(bus, retry, group, topic, partition, position)?;
                    cursors.remove(i);
                }
                Ok(())
            },
            |assigned| {
                let mut cursors = cursors.borrow_mut();
                // All or nothing: on an error the member releases every
                // granted partition, so none of them may keep a cursor.
                let mut fresh = Vec::with_capacity(assigned.len());
                for tp in assigned {
                    if cursors.iter().any(|c| c.partition == tp.partition) {
                        continue;
                    }
                    let reader = bus.partition_reader(topic, tp.partition)?;
                    let earliest = bus.earliest_offset(topic, tp.partition).unwrap_or(0);
                    let position = bus
                        .committed_offset(group, topic, tp.partition)
                        .unwrap_or(0)
                        .max(earliest);
                    let end = match finish {
                        Finish::Ends(ends) => {
                            ends.get(tp.partition as usize).copied().unwrap_or(position)
                        }
                        Finish::Follow(_) => reader.latest_offset().unwrap_or(position),
                    };
                    fresh.push(GroupCursor {
                        partition: tp.partition,
                        reader,
                        position,
                        end,
                    });
                }
                cursors.extend(fresh);
                cursors.sort_by_key(|c| c.partition);
                Ok(())
            },
        )
    }

    /// Follow mode: refreshes cursor ends to the current latest offsets.
    /// No-op for a bounded reader, whose finish line is fixed at join.
    fn refresh_ends(&mut self) {
        if matches!(self.finish, Finish::Ends(_)) {
            return;
        }
        for cursor in &mut self.cursors {
            if let Ok(end) = cursor.reader.latest_offset() {
                cursor.end = cursor.end.max(end);
            }
        }
    }

    /// How many records the next fetch pass may deliver: `cap`, and in
    /// follow mode no more than is both fetchable now and still missing
    /// from the target — reserved on the shared counter.
    fn reserve(&self, cap: usize) -> usize {
        let Finish::Follow(follow) = &self.finish else {
            return cap;
        };
        let available: u64 = self
            .cursors
            .iter()
            .map(|c| c.end.saturating_sub(c.position))
            .sum();
        follow.reserve(available.min(cap as u64)) as usize
    }

    /// One fetch pass over the owned cursors: up to `cap` records handed
    /// to `sink` with their partition, in per-partition offset order.
    /// Returns the number delivered. Fetch faults leave records in place
    /// for the next pass.
    pub fn fetch_pass(
        &mut self,
        cap: usize,
        sink: &mut dyn FnMut(u32, crate::StoredRecord),
    ) -> usize {
        let buffer = &mut self.fetch_buffer;
        let mut delivered = 0usize;
        for cursor in &mut self.cursors {
            if delivered >= cap || cursor.position >= cursor.end {
                continue;
            }
            let want = (cap - delivered).min((cursor.end - cursor.position) as usize);
            buffer.clear();
            if cursor
                .reader
                .fetch_into(cursor.position, want, buffer)
                .is_err()
            {
                continue;
            }
            if let Some(last) = buffer.last() {
                cursor.position = last.offset + 1;
            }
            for stored in buffer.drain(..) {
                sink(cursor.partition, stored);
                delivered += 1;
            }
        }
        delivered
    }

    /// Commits the current position of every owned cursor.
    ///
    /// # Errors
    ///
    /// Propagates commit faults that outlast the retries; positions stay
    /// local and the commit can be repeated.
    pub fn commit(&self) -> Result<()> {
        let GroupedReader {
            bus,
            topic,
            group,
            retry,
            ..
        } = self;
        for cursor in &self.cursors {
            commit(bus, retry, group, topic, cursor.partition, cursor.position)?;
        }
        Ok(())
    }

    /// Whether the **group** has reached this reader's finish line.
    /// Bounded: every partition is at the end captured at join — own
    /// partitions judged by live cursor position, peers' by their
    /// committed offset. Follow: the target has been emitted.
    pub fn drained(&self) -> bool {
        match &self.finish {
            Finish::Follow(follow) => follow.emitted() >= follow.target,
            Finish::Ends(ends) => ends.iter().enumerate().all(|(p, end)| {
                let position = match self.cursors.iter().find(|c| c.partition == p as u32) {
                    Some(cursor) => cursor.position,
                    None => self
                        .bus
                        .committed_offset(&self.group, &self.topic, p as u32)
                        .unwrap_or(0),
                };
                position >= *end
            }),
        }
    }

    /// One pass of the drive, without waiting: reconcile with the
    /// coordinator, refresh ends, fetch up to `cap` records (capped to
    /// what the follow target still misses) into `sink`, commit.
    /// Returns the number delivered — `Some(0)` when caught up with the
    /// read not finished — or `None` once the group is at the finish
    /// line, after committing and leaving the group.
    /// [`GroupedReader::next_batch`] is this plus the wait; schedules
    /// that interleave members on one thread call this directly.
    pub fn try_next_batch(
        &mut self,
        cap: usize,
        sink: &mut dyn FnMut(u32, crate::StoredRecord),
    ) -> Option<usize> {
        let _ = self.poll_rebalance();
        self.refresh_ends();
        let reserved = self.reserve(cap);
        let delivered = self.fetch_pass(reserved, sink);
        if let Finish::Follow(follow) = &self.finish {
            follow.refund((reserved - delivered) as u64);
        }
        // Commit so an ownership handover resumes past what this member
        // already delivered, and so peers see this member's progress.
        let _ = self.commit();
        if delivered == 0 && self.drained() {
            let _ = self.leave();
            return None;
        }
        Some(delivered)
    }

    /// Delivers the next batch of up to `cap` records to `sink`, waiting
    /// with [`Backoff`](crate::Backoff) while caught up — a peer still
    /// owns an undrained partition, a claim is pending, or the sender has
    /// not produced yet. Returns the number delivered, or `None` once the
    /// group has reached the finish line or nothing arrived for 10 s,
    /// after committing and leaving the group.
    pub fn next_batch(
        &mut self,
        cap: usize,
        sink: &mut dyn FnMut(u32, crate::StoredRecord),
    ) -> Option<usize> {
        self.drive(cap, STALL_LIMIT, sink)
    }

    fn drive(
        &mut self,
        cap: usize,
        stall: Duration,
        sink: &mut dyn FnMut(u32, crate::StoredRecord),
    ) -> Option<usize> {
        let mut backoff = crate::Backoff::new();
        let mut idle_since = Instant::now();
        let mut group_emitted = self.follow_emitted();
        loop {
            match self.try_next_batch(cap, sink) {
                Some(0) => {}
                delivered_or_finished => return delivered_or_finished,
            }
            // What a peer emits towards the shared target is progress
            // too: an idle member waits for as long as the job moves.
            let emitted = self.follow_emitted();
            if emitted != group_emitted {
                group_emitted = emitted;
                idle_since = Instant::now();
            }
            if idle_since.elapsed() >= stall {
                if obs::enabled() {
                    crate::telemetry::reader_stalled().add(1);
                }
                let _ = self.leave();
                return None;
            }
            backoff.snooze();
        }
    }

    fn follow_emitted(&self) -> u64 {
        match &self.finish {
            Finish::Follow(follow) => follow.emitted(),
            Finish::Ends(_) => 0,
        }
    }

    /// Commits all positions and leaves the group. Idempotent.
    ///
    /// # Errors
    ///
    /// Propagates coordinator faults from the final commit or release.
    pub fn leave(&mut self) -> Result<()> {
        self.commit()?;
        self.cursors.clear();
        self.member.leave()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn targets(state: &GroupState, member: &str) -> Vec<u32> {
        let mut v: Vec<u32> = state
            .view(member)
            .expect("member")
            .target
            .iter()
            .map(|tp| tp.partition)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn single_member_gets_everything() {
        let mut g = GroupState::default();
        let gen = g.join("a", vec![("t".into(), 4)]);
        assert_eq!(gen, 1);
        assert_eq!(targets(&g, "a"), vec![0, 1, 2, 3]);
    }

    #[test]
    fn range_assignment_is_contiguous_and_balanced() {
        let mut g = GroupState::default();
        g.join("a", vec![("t".into(), 8)]);
        g.join("b", vec![("t".into(), 8)]);
        g.join("c", vec![("t".into(), 8)]);
        let sizes: Vec<usize> = ["a", "b", "c"]
            .iter()
            .map(|m| targets(&g, m).len())
            .collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![2, 3, 3]);
        // Every partition targeted exactly once.
        let mut all: Vec<u32> = ["a", "b", "c"]
            .iter()
            .flat_map(|m| targets(&g, m))
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn sticky_retention_minimises_movement() {
        let mut g = GroupState::default();
        g.join("a", vec![("t".into(), 8)]);
        let before = targets(&g, "a");
        assert_eq!(before.len(), 8);
        g.join("b", vec![("t".into(), 8)]);
        let after_a = targets(&g, "a");
        // `a` keeps exactly its quota's worth of its old partitions.
        assert_eq!(after_a.len(), 4);
        assert!(after_a.iter().all(|p| before.contains(p)));
        assert_eq!(targets(&g, "b").len(), 4);
    }

    #[test]
    fn leave_returns_partitions_to_survivors() {
        let mut g = GroupState::default();
        g.join("a", vec![("t".into(), 6)]);
        g.join("b", vec![("t".into(), 6)]);
        assert!(g.leave("b"));
        assert_eq!(targets(&g, "a"), vec![0, 1, 2, 3, 4, 5]);
        assert!(!g.leave("b"), "second leave is a no-op");
    }

    #[test]
    fn claim_respects_cooperative_handover() {
        let mut g = GroupState::default();
        g.join("a", vec![("t".into(), 2)]);
        let all: Vec<TopicPartition> = (0..2).map(|p| TopicPartition::new("t", p)).collect();
        assert_eq!(g.claim("a", &all).len(), 2);

        g.join("b", vec![("t".into(), 2)]);
        let b_target = g.view("b").expect("b").target.clone();
        assert_eq!(b_target.len(), 1);
        // `a` still owns it: claim is denied until `a` releases.
        assert!(g.claim("b", &b_target).is_empty());
        g.release("a", &b_target);
        assert_eq!(g.claim("b", &b_target), b_target);
    }

    #[test]
    fn claim_ignores_untargeted_partitions() {
        let mut g = GroupState::default();
        g.join("a", vec![("t".into(), 2)]);
        g.join("b", vec![("t".into(), 2)]);
        let a_target = g.view("a").expect("a").target.clone();
        // `b` asking for `a`'s partition gets nothing.
        assert!(g.claim("b", &a_target).is_empty());
    }

    #[test]
    fn generation_bumps_on_every_membership_change() {
        let mut g = GroupState::default();
        assert_eq!(g.generation(), 0);
        g.join("a", vec![("t".into(), 1)]);
        assert_eq!(g.generation(), 1);
        g.join("b", vec![("t".into(), 1)]);
        assert_eq!(g.generation(), 2);
        g.leave("a");
        assert_eq!(g.generation(), 3);
    }

    /// The group protocol through [`GroupMember`] on any bus: joins,
    /// cooperative handover, commits, a dead bus, the acting
    /// coordinator's death and a leave. `brokers` is the bus's broker
    /// count; `kill` and `restart` take broker `i` down and up (broker 0
    /// is the acting coordinator).
    fn group_protocol(
        bus: BusHandle,
        brokers: usize,
        kill: &dyn Fn(usize),
        restart: &dyn Fn(usize),
    ) {
        let topics = crate::TopicConfig::default().partitions(4);
        bus.create_topic("t", topics).unwrap();
        let join =
            |member: &str, topic: &str| GroupMember::join(bus.clone(), "g", member, &[topic]);
        let poll = |m: &mut GroupMember| m.poll_rebalance(|_| Ok(()), |_| Ok(()));
        let retry = crate::RetryPolicy::none();
        let commit_t = |partition, offset| commit(&bus, &retry, "g", "t", partition, offset);
        let generation = || bus.coordinator(None).unwrap().generation("g");

        // An unknown topic can be neither joined nor committed to.
        let missing = Error::UnknownTopic("missing".to_string());
        assert_eq!(join("x", "missing").unwrap_err(), missing);
        assert_eq!(commit(&bus, &retry, "g", "missing", 0, 1), Err(missing));
        assert_eq!(generation(), 0);

        let mut a = join("a", "t").unwrap();
        assert!(poll(&mut a).unwrap());
        assert_eq!((generation(), a.generation(), a.owned().len()), (1, 1, 4));

        // A second member splits the target; its claim waits for `a`.
        let mut b = join("b", "t").unwrap();
        assert!(!poll(&mut b).unwrap(), "the claim waits for the release");
        assert_eq!((generation(), b.owned().len()), (2, 0));
        let mut revoked = Vec::new();
        let on_revoke = |lost: &[TopicPartition]| {
            revoked.extend_from_slice(lost);
            Ok(())
        };
        assert!(a.poll_rebalance(on_revoke, |_| Ok(())).unwrap());
        assert_eq!((a.owned().len(), revoked.len()), (2, 2));
        assert!(poll(&mut b).unwrap());
        assert_eq!(b.owned(), &revoked[..], "released, then claimed");

        commit_t(0, 7).unwrap();
        assert_eq!(bus.committed_offset("g", "t", 0), Some(7));

        // With every broker down there is no coordinator to ask.
        (0..brokers).for_each(kill);
        assert_eq!(join("c", "t").unwrap_err(), Error::BrokerDown);
        assert_eq!(poll(&mut b), Err(Error::BrokerDown));
        let last = Box::new(Error::BrokerDown);
        let exhausted = Error::RetriesExhausted { attempts: 1, last };
        assert_eq!(commit_t(0, 8), Err(exhausted));
        assert_eq!(bus.committed_offset("g", "t", 0), None);
        (0..brokers).for_each(restart);

        // The acting coordinator dies: a cluster hands the role to the
        // next live broker with membership and commits intact.
        if brokers > 1 {
            kill(0);
        }
        assert_eq!(bus.committed_offset("g", "t", 0), Some(7));
        commit_t(0, 9).unwrap();
        assert_eq!(bus.committed_offset("g", "t", 0), Some(9));

        // A leave rebalances the survivor onto the whole topic.
        a.leave().unwrap();
        a.leave().unwrap();
        assert!(poll(&mut b).unwrap());
        assert_eq!((generation(), b.generation(), b.owned().len()), (3, 3, 4));

        // A member that left syncs nothing; an unknown group syncs and
        // claims nothing, and leaving or releasing it is a no-op.
        let coordinator = bus.coordinator(None).unwrap();
        let t0 = [TopicPartition::new("t", 0)];
        assert!(coordinator.sync("g", "a").is_err());
        assert!(coordinator.sync("nope", "x").is_err());
        assert!(coordinator.claim("nope", "x", &t0).is_err());
        coordinator.leave("nope", "x");
        coordinator.release("nope", "x", &t0);
    }

    #[test]
    fn group_protocol_on_a_broker() {
        let broker = crate::Broker::new();
        let (down, up) = (broker.clone(), broker.clone());
        group_protocol(broker.into(), 1, &|_| down.kill(), &|_| up.restart());
    }

    #[test]
    fn group_protocol_on_a_cluster() {
        let cluster = crate::Cluster::new(crate::ClusterConfig { brokers: 3 });
        let (down, up) = (cluster.clone(), cluster.clone());
        let (kill, restart) = (move |i| down.kill_broker(i), move |i| up.restart_broker(i));
        group_protocol(cluster.into(), 3, &kill, &restart);
    }

    /// A topic of `partitions` x `per_partition` records.
    fn loaded(partitions: u32, per_partition: u64) -> crate::Broker {
        let broker = crate::Broker::new();
        broker
            .create_topic("t", crate::TopicConfig::default().partitions(partitions))
            .unwrap();
        for p in 0..partitions {
            for i in 0..per_partition {
                broker
                    .produce("t", p, crate::Record::from_value(format!("p{p}-{i}")))
                    .unwrap();
            }
        }
        broker
    }

    #[test]
    fn grouped_reader_drains_bounded_topic() {
        let broker = loaded(3, 7);
        // A record produced after the join is outside the finish line.
        let mut reader = GroupedReader::bounded(broker.clone(), "t", "g").unwrap();
        broker
            .produce("t", 0, crate::Record::from_value("late"))
            .unwrap();
        assert_eq!(reader.owned_partitions(), 3, "sole member owns the topic");
        let mut seen = Vec::new();
        while reader
            .next_batch(5, &mut |p, stored| seen.push((p, stored.record.value)))
            .is_some()
        {}
        assert_eq!(seen.len(), 21, "bounded read stops at ends-at-join");
    }

    #[test]
    fn concurrent_grouped_readers_share_topic_exactly_once() {
        let broker = loaded(4, 50);
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let broker = broker.clone();
                std::thread::spawn(move || {
                    let mut reader = GroupedReader::bounded(broker, "t", "share").unwrap();
                    let mut seen = Vec::new();
                    while reader
                        .next_batch(8, &mut |p, stored| seen.push((p, stored.record.value)))
                        .is_some()
                    {}
                    seen
                })
            })
            .collect();
        let mut all: Vec<_> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 200, "group reads every record exactly once");
    }

    #[test]
    fn rebalance_hands_over_position_exactly_once() {
        let broker = loaded(2, 10);
        let join = || GroupedReader::bounded(broker.clone(), "t", "g");
        let mut seen = Vec::new();
        let mut sink = |p: u32, stored: crate::StoredRecord| seen.push((p, stored.offset));
        // `a` reads part of the input before `b` arrives.
        let mut a = join().unwrap();
        assert_eq!(a.owned_partitions(), 2);
        assert_eq!(a.try_next_batch(7, &mut sink), Some(7));
        let mut b = join().unwrap();
        assert_eq!(b.owned_partitions(), 0, "the claim waits for `a`'s release");
        // `a`'s next pass sees the new generation: commit, release.
        assert!(a.try_next_batch(2, &mut sink).is_some());
        assert_eq!(a.owned_partitions(), 1);
        let (mut a_live, mut b_live) = (true, true);
        while a_live || b_live {
            a_live = a_live && a.try_next_batch(16, &mut sink).is_some();
            b_live = b_live && b.try_next_batch(16, &mut sink).is_some();
        }
        seen.sort_unstable();
        let all: Vec<(u32, u64)> = (0..2).flat_map(|p| (0..10).map(move |o| (p, o))).collect();
        assert_eq!(seen, all, "no loss, no duplication across the rebalance");
    }

    #[test]
    fn leave_group_rebalances_survivors() {
        let broker = loaded(2, 4);
        let join = || GroupedReader::bounded(broker.clone(), "t", "g");
        let (mut a, mut b) = (join().unwrap(), join().unwrap());
        // Settle the two-member assignment without reading anything.
        let mut sink = |_p: u32, _stored: crate::StoredRecord| {};
        assert_eq!(a.try_next_batch(0, &mut sink), Some(0));
        assert_eq!(b.try_next_batch(0, &mut sink), Some(0));
        assert_eq!((a.owned_partitions(), b.owned_partitions()), (1, 1));
        b.leave().unwrap();
        assert_eq!(a.try_next_batch(0, &mut sink), Some(0));
        assert_eq!(a.owned_partitions(), 2, "survivor absorbs the partitions");
        b.leave().unwrap(); // idempotent
    }

    const SHORT_STALL: Duration = Duration::from_millis(30);

    #[test]
    fn bounded_reader_gives_up_on_a_peer_that_never_commits() {
        let broker = loaded(2, 4);
        let mut reader = GroupedReader::bounded(broker.clone(), "t", "g").unwrap();
        // The peer takes one partition over and then neither reads nor
        // commits: the group can never reach the reader's finish line.
        let mut peer = GroupMember::join(broker, "g", "peer", &["t"]).unwrap();
        let mut seen = 0;
        let mut sink = |_p: u32, _stored: crate::StoredRecord| seen += 1;
        assert_eq!(reader.drive(8, SHORT_STALL, &mut sink), Some(4));
        peer.poll_rebalance(|_| Ok(()), |_| Ok(())).unwrap();
        assert_eq!(peer.owned().len(), 1, "the peer holds the other partition");
        let started = Instant::now();
        assert_eq!(reader.drive(8, SHORT_STALL, &mut sink), None, "stall exit");
        assert!(started.elapsed() >= SHORT_STALL);
        assert!(!reader.drained(), "gave up short of the finish line");
        assert_eq!(seen, 4);
    }

    #[test]
    fn follow_reader_gives_up_when_the_producer_stops_short() {
        let broker = loaded(1, 5);
        let group = GroupedReader::fresh_group("stall");
        let mut reader =
            GroupedReader::following(broker, "t", group, FollowTarget::new(8)).unwrap();
        let mut seen = 0;
        let mut sink = |_p: u32, _stored: crate::StoredRecord| seen += 1;
        assert_eq!(reader.drive(100, SHORT_STALL, &mut sink), Some(5));
        assert_eq!(
            reader.drive(100, SHORT_STALL, &mut sink),
            None,
            "stall exit"
        );
        assert!(!reader.drained(), "three records short of the target");
        assert_eq!(seen, 5);
    }
}
