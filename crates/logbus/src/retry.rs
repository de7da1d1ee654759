//! Bounded retries with exponential backoff and deterministic jitter.
//!
//! Every client — the [`PartitionWriter`](crate::PartitionWriter) /
//! [`PartitionReader`](crate::PartitionReader) handles, the
//! [`AsyncProducer`](crate::AsyncProducer) over a writer and the
//! [`TopicReader`](crate::TopicReader) over readers — retries
//! *transient* errors (see [`Error::is_transient`]) under a
//! [`RetryPolicy`]: capped attempt count, capped wall-clock budget,
//! exponential backoff with jitter drawn from the seeded RNG shim so a
//! fault-plan replay backs off identically. Non-transient errors are
//! returned immediately; an exhausted budget surfaces as
//! [`Error::RetriesExhausted`].

use crate::error::{Error, Result};
use crate::topic::spin_delay;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Retry schedule for one client call.
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use = "a policy does nothing until passed to a client or `with_retry`"]
pub struct RetryPolicy {
    /// Maximum retries after the first attempt.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Wall-clock budget for the whole call, attempts plus backoffs.
    pub timeout: Duration,
    /// Seed for backoff jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    /// Eight retries, 40µs–2ms backoff, a 250ms call budget: generous
    /// against any bounded [`FaultPlan`](crate::FaultPlan) (which forces
    /// success after `max_consecutive` faults) yet quick to give up on a
    /// genuinely dead broker.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 8,
            base_backoff: Duration::from_micros(40),
            max_backoff: Duration::from_millis(2),
            timeout: Duration::from_millis(250),
            seed: 2019,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (the first error is final).
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            timeout: Duration::from_secs(3600),
            seed: 0,
        }
    }

    /// Backoff for `attempt` (0-based): `base * 2^attempt`, capped at
    /// `max_backoff`, jittered to 50–150% from the policy seed.
    pub(crate) fn backoff(&self, attempt: u32, rng: &mut StdRng) -> Duration {
        let base = self.base_backoff.as_micros() as u64;
        if base == 0 {
            return Duration::ZERO;
        }
        let exp = base.saturating_mul(1u64 << attempt.min(20));
        let capped = exp.min(self.max_backoff.as_micros() as u64).max(1);
        let jittered = capped / 2 + rng.gen_range(0..=capped);
        Duration::from_micros(jittered)
    }
}

/// Per-call retry bookkeeping: attempt count, wall-clock budget, the
/// lazily seeded jitter stream, and the outage clock.
#[derive(Debug, Default)]
struct RetryState {
    attempt: u32,
    first_failure: Option<Instant>,
    rng: Option<StdRng>,
    /// When the call's first failover-class error landed (the leader
    /// moved, was fenced, or its broker is dead — as opposed to a flaky
    /// network): the start of the client-visible unavailability window,
    /// which the next success closes. Set only while observability is on.
    outage: Option<Instant>,
}

impl RetryState {
    /// Marks the call's eventual success: counts the recovery if any
    /// retries happened, and closes the unavailability window.
    fn note_success(&mut self) {
        if self.attempt > 0 && obs::enabled() {
            crate::telemetry::retry_path().recoveries.add(1);
        }
        if let Some(started) = self.outage.take() {
            crate::telemetry::failover_path().unavailability(started.elapsed());
        }
    }

    /// Handles one failed attempt: propagates non-transient errors
    /// untouched, converts a spent budget into
    /// [`Error::RetriesExhausted`], and otherwise backs off (busy-wait,
    /// like the simulated network round trips) so the caller can retry.
    fn backoff_or_give_up(&mut self, policy: &RetryPolicy, error: Error) -> Result<()> {
        if !error.is_transient() {
            return Err(error);
        }
        let failover = matches!(
            error,
            Error::BrokerDown
                | Error::NotLeader { .. }
                | Error::FencedEpoch { .. }
                | Error::PartitionOffline { .. }
        );
        if failover && self.outage.is_none() && obs::enabled() {
            self.outage = Some(Instant::now());
        }
        let started = *self.first_failure.get_or_insert_with(Instant::now);
        let timed_out = started.elapsed() >= policy.timeout;
        if self.attempt >= policy.max_retries || timed_out {
            if obs::enabled() {
                let path = crate::telemetry::retry_path();
                if timed_out {
                    path.timeouts.add(1);
                }
                path.give_ups.add(1);
            }
            return Err(Error::RetriesExhausted {
                attempts: self.attempt + 1,
                last: Box::new(error),
            });
        }
        if obs::enabled() {
            crate::telemetry::retry_path().attempts.add(1);
        }
        let rng = self
            .rng
            .get_or_insert_with(|| StdRng::seed_from_u64(policy.seed));
        spin_delay(policy.backoff(self.attempt, rng));
        self.attempt += 1;
        Ok(())
    }
}

/// Runs `op`, retrying transient errors under `policy`.
///
/// The backoff is busy-waited (like the simulated network round trips),
/// so microsecond-scale backoffs stay microsecond-scale. Retry attempts,
/// timeouts, and give-ups are counted through the `obs` registry when
/// instrumentation is enabled, as is the unavailability window of a
/// request that rode out a failover (its first failover-class error to
/// its success).
///
/// # Errors
///
/// Returns the first non-transient error as-is, or
/// [`Error::RetriesExhausted`] once the attempt or time budget is spent.
pub fn with_retry<T>(policy: &RetryPolicy, mut op: impl FnMut() -> Result<T>) -> Result<T> {
    let mut state = RetryState::default();
    loop {
        match op() {
            Ok(value) => {
                state.note_success();
                return Ok(value);
            }
            Err(error) => state.backoff_or_give_up(policy, error)?,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_success_costs_nothing_extra() {
        let policy = RetryPolicy::default();
        let result = with_retry(&policy, || Ok::<_, Error>(42));
        assert_eq!(result.unwrap(), 42);
    }

    #[test]
    fn transient_errors_are_retried_to_success() {
        let policy = RetryPolicy::default();
        let mut failures = 3;
        let result = with_retry(&policy, || {
            if failures > 0 {
                failures -= 1;
                Err(Error::BrokerUnavailable)
            } else {
                Ok("ok")
            }
        });
        assert_eq!(result.unwrap(), "ok");
    }

    #[test]
    fn non_transient_errors_fail_fast() {
        let policy = RetryPolicy::default();
        let mut calls = 0;
        let result: Result<()> = with_retry(&policy, || {
            calls += 1;
            Err(Error::UnknownTopic("t".into()))
        });
        assert_eq!(result, Err(Error::UnknownTopic("t".into())));
        assert_eq!(calls, 1);
    }

    #[test]
    fn budget_exhaustion_reports_attempts_and_cause() {
        let policy = RetryPolicy {
            max_retries: 2,
            ..RetryPolicy::default()
        };
        let result: Result<()> = with_retry(&policy, || Err(Error::RequestTimedOut));
        match result {
            Err(Error::RetriesExhausted { attempts, last }) => {
                assert_eq!(attempts, 3);
                assert_eq!(*last, Error::RequestTimedOut);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn never_retry_policy_gives_up_immediately() {
        let mut calls = 0;
        let result: Result<()> = with_retry(&RetryPolicy::none(), || {
            calls += 1;
            Err(Error::BrokerUnavailable)
        });
        assert!(matches!(
            result,
            Err(Error::RetriesExhausted { attempts: 1, .. })
        ));
        assert_eq!(calls, 1);
    }

    #[test]
    fn backoff_is_bounded_and_grows() {
        let policy = RetryPolicy::default();
        let mut rng = StdRng::seed_from_u64(policy.seed);
        let early = policy.backoff(0, &mut rng);
        let late = policy.backoff(10, &mut rng);
        assert!(early <= policy.max_backoff + policy.max_backoff / 2);
        assert!(late <= policy.max_backoff + policy.max_backoff / 2);
        assert!(late >= policy.max_backoff / 2);
    }
}
