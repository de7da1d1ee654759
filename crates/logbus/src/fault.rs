//! Deterministic broker fault injection.
//!
//! A [`FaultPlan`] is a seeded schedule of *transient* broker
//! misbehaviour — errors, lost acks, duplicate appends, added latency —
//! consulted by the [`Broker`](crate::Broker) on every produce, fetch,
//! and metadata request once installed. Decisions are drawn from an
//! independent deterministic stream per `(topic, partition, operation)`
//! key, so a plan replays identically for a given seed regardless of
//! thread interleaving across partitions.
//!
//! The plan is **off by default** and costs one relaxed atomic load on
//! the steady-state path while disabled. Faults are bounded: at most
//! [`FaultPlan::max_consecutive`] consecutive faults are injected per
//! key before a success is forced, so a client whose
//! [`RetryPolicy`](crate::RetryPolicy) budget exceeds that bound always
//! recovers — the faults model a flaky network, not a dead broker.

use crate::error::Error;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::time::Duration;

/// The class of broker operation a fault decision applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOp {
    /// Appends (single-record and batch).
    Produce,
    /// Reads.
    Fetch,
    /// Handle resolution, offset lookups, group-offset commits.
    Metadata,
    /// Broker process crashes (cluster-level; decided per partition
    /// leader, never mixed into the per-request streams above).
    Crash,
}

/// A seeded, per-topic/partition/operation schedule of transient faults.
///
/// Probabilities are evaluated per request in the order: error, lost
/// ack, duplicate append, extra latency; at most one fault is injected
/// per request. All fields are public so tests can dial individual
/// fault classes; [`FaultPlan::seeded`] gives a moderate mixed plan.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Root seed; every `(topic, partition, op)` key derives its own
    /// decision stream from it.
    pub seed: u64,
    /// Probability of a transient error on a produce request.
    pub produce_error: f64,
    /// Probability of a transient error on a fetch request.
    pub fetch_error: f64,
    /// Probability of a transient error on a metadata request.
    pub metadata_error: f64,
    /// Probability that a produce is *applied* but its ack is lost
    /// (surfaces as [`Error::RequestTimedOut`]; a naive retry duplicates
    /// the batch — idempotent writers deduplicate it broker-side).
    pub ack_loss: f64,
    /// Probability of a broker-side duplicate append on produce.
    pub duplicate: f64,
    /// Cap on duplicate appends injected per key over the plan's life.
    pub max_duplicates: u32,
    /// Probability of added latency on any request.
    pub extra_latency: f64,
    /// Added latency range in microseconds.
    pub extra_latency_micros: std::ops::Range<u64>,
    /// Cap on consecutive injected faults per key before a success is
    /// forced (keeps every fault transient).
    pub max_consecutive: u32,
    /// Probability (per replicated produce) that the partition leader's
    /// broker **crashes** — the process dies mid-run and an election
    /// promotes an in-sync follower. Off by default; only
    /// [`Cluster`](crate::Cluster)s with crash failover enabled consult
    /// it.
    pub crash: f64,
    /// How long a crashed broker stays down before it restarts and
    /// rejoins as a follower (0 = stays down for the plan's life).
    pub crash_restart_micros: u64,
    /// Restrict injection to these topics (`None` = all topics).
    pub topics: Option<Vec<String>>,
}

impl FaultPlan {
    /// A moderate mixed plan: every fault class enabled, bounded so any
    /// client retrying at least [`FaultPlan::max_consecutive`] times
    /// recovers.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            produce_error: 0.05,
            fetch_error: 0.05,
            metadata_error: 0.05,
            ack_loss: 0.03,
            duplicate: 0.02,
            max_duplicates: 16,
            extra_latency: 0.05,
            extra_latency_micros: 50..500,
            max_consecutive: 3,
            crash: 0.0,
            crash_restart_micros: 2_000,
            topics: None,
        }
    }

    /// Enables broker crashes at probability `crash` per replicated
    /// produce, with crashed brokers restarting after `restart_micros`.
    #[must_use]
    pub fn with_crashes(mut self, crash: f64, restart_micros: u64) -> Self {
        self.crash = crash;
        self.crash_restart_micros = restart_micros;
        self
    }

    /// Restricts the plan to `topics`.
    #[must_use]
    pub fn for_topics(mut self, topics: Vec<String>) -> Self {
        self.topics = Some(topics);
        self
    }

    fn applies_to(&self, topic: &str) -> bool {
        match &self.topics {
            None => true,
            Some(list) => list.iter().any(|t| t == topic),
        }
    }
}

/// One injected fault, resolved by the caller at the request site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum FaultAction {
    /// Fail the request before it touches the log.
    Error(Error),
    /// Apply the append, then report [`Error::RequestTimedOut`].
    AckLost,
    /// Apply the append twice.
    Duplicate,
    /// Busy-wait this long extra, then proceed normally.
    Latency(Duration),
}

impl FaultAction {
    /// Counts the drawn fault by class when observability is on.
    pub(crate) fn count(&self) {
        if !obs::enabled() {
            return;
        }
        let path = crate::telemetry::fault_path();
        match self {
            FaultAction::Error(_) => path.errors.add(1),
            FaultAction::AckLost => path.ack_losses.add(1),
            FaultAction::Duplicate => path.duplicates.add(1),
            FaultAction::Latency(_) => path.latencies.add(1),
        }
    }
}

/// Per-key decision stream state.
#[derive(Debug)]
struct KeyState {
    rng: StdRng,
    consecutive: u32,
    duplicates: u32,
}

/// The installed fault plan plus its per-key decision streams.
#[derive(Debug)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    state: Mutex<HashMap<(u64, u32, FaultOp), KeyState>>,
}

impl FaultInjector {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            state: Mutex::new(HashMap::new()),
        }
    }

    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Draws the next decision for `(topic, partition, op)`.
    pub(crate) fn decide(&self, op: FaultOp, topic: &str, partition: u32) -> Option<FaultAction> {
        if !self.plan.applies_to(topic) {
            return None;
        }
        let mut hasher = DefaultHasher::new();
        topic.hash(&mut hasher);
        let topic_hash = hasher.finish();

        let mut state = self.state.lock();
        let key = (topic_hash, partition, op);
        let ks = state.entry(key).or_insert_with(|| KeyState {
            rng: StdRng::seed_from_u64(
                self.plan
                    .seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(topic_hash)
                    .wrapping_add(u64::from(partition))
                    .wrapping_add(op as u64),
            ),
            consecutive: 0,
            duplicates: 0,
        });
        if ks.consecutive >= self.plan.max_consecutive {
            // Forced success: the fault window closed, the broker "healed".
            ks.consecutive = 0;
            return None;
        }
        let error_prob = match op {
            FaultOp::Produce => self.plan.produce_error,
            FaultOp::Fetch => self.plan.fetch_error,
            FaultOp::Metadata => self.plan.metadata_error,
            // Crashes have their own decision stream (`decide_crash`);
            // they never ride the per-request fault path.
            FaultOp::Crash => return None,
        };
        if ks.rng.gen_bool(error_prob) {
            ks.consecutive += 1;
            let error = match ks.rng.next_u64() % 3 {
                0 => Error::BrokerUnavailable,
                1 => Error::PartitionOffline {
                    topic: topic.to_string(),
                    partition,
                },
                _ => Error::RequestTimedOut,
            };
            return Some(FaultAction::Error(error));
        }
        if op == FaultOp::Produce {
            if ks.rng.gen_bool(self.plan.ack_loss) {
                ks.consecutive += 1;
                return Some(FaultAction::AckLost);
            }
            if ks.duplicates < self.plan.max_duplicates && ks.rng.gen_bool(self.plan.duplicate) {
                ks.consecutive = 0;
                ks.duplicates += 1;
                return Some(FaultAction::Duplicate);
            }
        }
        if ks.rng.gen_bool(self.plan.extra_latency) {
            ks.consecutive = 0;
            let range = self.plan.extra_latency_micros.clone();
            let micros = if range.is_empty() {
                0
            } else {
                ks.rng.gen_range(range)
            };
            return Some(FaultAction::Latency(Duration::from_micros(micros)));
        }
        ks.consecutive = 0;
        None
    }

    /// Draws the next crash decision for `(topic, partition)` — its own
    /// deterministic stream, independent of the per-request fault
    /// streams, so enabling crashes does not perturb replayed fault
    /// schedules. Unbounded by `max_consecutive`: recovery comes from
    /// the election and the scheduled restart, not a forced success.
    pub(crate) fn decide_crash(&self, topic: &str, partition: u32) -> bool {
        if self.plan.crash <= 0.0 || !self.plan.applies_to(topic) {
            return false;
        }
        let mut hasher = DefaultHasher::new();
        topic.hash(&mut hasher);
        let topic_hash = hasher.finish();

        let mut state = self.state.lock();
        let key = (topic_hash, partition, FaultOp::Crash);
        let ks = state.entry(key).or_insert_with(|| KeyState {
            rng: StdRng::seed_from_u64(
                self.plan
                    .seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(topic_hash)
                    .wrapping_add(u64::from(partition))
                    .wrapping_add(FaultOp::Crash as u64),
            ),
            consecutive: 0,
            duplicates: 0,
        });
        ks.rng.gen_bool(self.plan.crash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_actions(plan: FaultPlan, draws: usize) -> (usize, usize, usize, usize) {
        let injector = FaultInjector::new(plan);
        let (mut errors, mut acks, mut dups, mut lat) = (0, 0, 0, 0);
        for _ in 0..draws {
            match injector.decide(FaultOp::Produce, "t", 0) {
                Some(FaultAction::Error(_)) => errors += 1,
                Some(FaultAction::AckLost) => acks += 1,
                Some(FaultAction::Duplicate) => dups += 1,
                Some(FaultAction::Latency(_)) => lat += 1,
                None => {}
            }
        }
        (errors, acks, dups, lat)
    }

    #[test]
    fn same_seed_same_decisions() {
        let a = count_actions(FaultPlan::seeded(7), 2_000);
        let b = count_actions(FaultPlan::seeded(7), 2_000);
        assert_eq!(a, b);
        let (errors, acks, dups, lat) = a;
        assert!(errors > 0 && acks > 0 && dups > 0 && lat > 0, "{a:?}");
    }

    #[test]
    fn per_key_streams_are_independent_of_interleaving() {
        let plan = FaultPlan::seeded(11);
        let solo = FaultInjector::new(plan.clone());
        let solo_decisions: Vec<_> = (0..500)
            .map(|_| solo.decide(FaultOp::Fetch, "a", 0))
            .collect();

        // Interleave draws for an unrelated key; key `("a", 0, Fetch)`
        // must see the identical stream.
        let mixed = FaultInjector::new(plan);
        let mut mixed_decisions = Vec::new();
        for i in 0..500 {
            if i % 2 == 0 {
                mixed.decide(FaultOp::Produce, "b", 3);
            }
            mixed_decisions.push(mixed.decide(FaultOp::Fetch, "a", 0));
        }
        assert_eq!(solo_decisions, mixed_decisions);
    }

    #[test]
    fn consecutive_faults_are_bounded() {
        let mut plan = FaultPlan::seeded(3);
        plan.produce_error = 1.0; // every draw wants to fault
        plan.max_consecutive = 2;
        let injector = FaultInjector::new(plan);
        let mut run = 0u32;
        for _ in 0..100 {
            match injector.decide(FaultOp::Produce, "t", 0) {
                Some(FaultAction::Error(e)) => {
                    assert!(e.is_transient());
                    run += 1;
                    assert!(run <= 2, "more than max_consecutive faults in a row");
                }
                None => run = 0,
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn duplicates_are_capped() {
        let mut plan = FaultPlan::seeded(5);
        plan.produce_error = 0.0;
        plan.ack_loss = 0.0;
        plan.duplicate = 1.0;
        plan.max_duplicates = 4;
        let injector = FaultInjector::new(plan);
        let dups = (0..100)
            .filter(|_| {
                matches!(
                    injector.decide(FaultOp::Produce, "t", 0),
                    Some(FaultAction::Duplicate)
                )
            })
            .count();
        assert_eq!(dups, 4);
    }

    #[test]
    fn crash_stream_is_deterministic_and_independent() {
        let plan = FaultPlan::seeded(7).with_crashes(0.3, 100);
        let solo = FaultInjector::new(plan.clone());
        let solo_crashes: Vec<bool> = (0..200).map(|_| solo.decide_crash("t", 0)).collect();
        assert!(solo_crashes.iter().any(|&c| c));
        assert!(solo_crashes.iter().any(|&c| !c));

        // Interleaving per-request draws must not perturb the crash
        // stream (and vice versa: same request decisions as crash-free).
        let mixed = FaultInjector::new(plan);
        let mixed_crashes: Vec<bool> = (0..200)
            .map(|i| {
                if i % 3 == 0 {
                    mixed.decide(FaultOp::Produce, "t", 0);
                }
                mixed.decide_crash("t", 0)
            })
            .collect();
        assert_eq!(solo_crashes, mixed_crashes);

        // Plans without crashes enabled never crash anything.
        let off = FaultInjector::new(FaultPlan::seeded(7));
        assert!((0..200).all(|_| !off.decide_crash("t", 0)));
        // decide() never emits a fault for the crash op itself.
        assert!(off.decide(FaultOp::Crash, "t", 0).is_none());
    }

    #[test]
    fn topic_filter_limits_blast_radius() {
        let plan = FaultPlan {
            produce_error: 1.0,
            ..FaultPlan::seeded(1)
        }
        .for_topics(vec!["chaos".into()]);
        let injector = FaultInjector::new(plan);
        assert!(injector.decide(FaultOp::Produce, "calm", 0).is_none());
        assert!(injector.decide(FaultOp::Produce, "chaos", 0).is_some());
    }
}
