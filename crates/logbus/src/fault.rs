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
///
/// Each variant's discriminant seeds its decision stream, so the order
/// is part of every replayed schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOp {
    /// Appends (single-record and batch).
    Produce,
    /// Reads.
    Fetch,
    /// Handle resolution, offset lookups, group-offset commits.
    Metadata,
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

    /// Draws the next decision for `(topic, partition, op)`.
    pub(crate) fn decide(&self, op: FaultOp, topic: &str, partition: u32) -> Option<FaultAction> {
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

    /// One decision as a compact token: `.` none, `B`/`O`/`T` the three
    /// transient errors, `A` a lost ack, `D` a duplicate, `L<micros>`
    /// added latency.
    fn schedule(op: FaultOp, draws: usize) -> String {
        let injector = FaultInjector::new(FaultPlan::seeded(2019));
        (0..draws)
            .map(|_| match injector.decide(op, "input", 0) {
                None => ".".to_string(),
                Some(FaultAction::Error(Error::BrokerUnavailable)) => "B".to_string(),
                Some(FaultAction::Error(Error::PartitionOffline { .. })) => "O".to_string(),
                Some(FaultAction::Error(Error::RequestTimedOut)) => "T".to_string(),
                Some(FaultAction::Error(other)) => panic!("unexpected {other:?}"),
                Some(FaultAction::AckLost) => "A".to_string(),
                Some(FaultAction::Duplicate) => "D".to_string(),
                Some(FaultAction::Latency(d)) => format!("L{}", d.as_micros()),
            })
            .collect()
    }

    #[test]
    fn seeded_schedules_replay_bit_identically() {
        // `--fault-seed 2019` and the chaos suites replay these streams:
        // each op's stream is seeded from its discriminant, so the enum
        // order and the draw order are pinned here.
        assert_eq!(
            schedule(FaultOp::Produce, 64),
            "....D....B..L243.B.B...L85.....L385.A...............L134.............A....."
        );
        assert_eq!(
            schedule(FaultOp::Fetch, 64),
            "O................B......T...L290..................T.............T.."
        );
        assert_eq!(
            schedule(FaultOp::Metadata, 64),
            "....L447...........................T.........L411.L369................O.."
        );
    }
}
