//! Cached broker-path instruments.
//!
//! Both the named broker methods and the cached partition handles report
//! into the same global instruments, so a produce costs the same
//! telemetry no matter which path it took. Handles are resolved once per
//! process into statics: a hot-path call while instrumentation is
//! enabled pays only the atomic adds of the instruments themselves, and
//! while disabled only the `obs::enabled()` branch at the call site.

use std::sync::OnceLock;

/// Instruments on the produce path (named and handle-based).
pub(crate) struct ProducePath {
    /// End-to-end append latency, including the simulated round trip.
    pub(crate) latency_micros: obs::Histogram,
    /// Records per broker-side append.
    pub(crate) batch_records: obs::Histogram,
    /// Total records successfully appended.
    pub(crate) records: obs::Counter,
}

pub(crate) fn produce_path() -> &'static ProducePath {
    static PATH: OnceLock<ProducePath> = OnceLock::new();
    PATH.get_or_init(|| ProducePath {
        latency_micros: obs::histogram("logbus.produce.micros"),
        batch_records: obs::histogram("logbus.produce.batch_records"),
        records: obs::counter("logbus.produce.records"),
    })
}

impl ProducePath {
    /// Records one append of `records` records taking `elapsed`.
    pub(crate) fn observe(&self, records: u64, elapsed: std::time::Duration, ok: bool) {
        self.latency_micros.record(elapsed.as_micros() as u64);
        self.batch_records.record(records);
        if ok {
            self.records.add(records);
        }
    }
}

/// Instruments on the fetch path (named and handle-based).
pub(crate) struct FetchPath {
    /// End-to-end fetch latency, including the simulated round trip.
    pub(crate) latency_micros: obs::Histogram,
    /// Total records returned to fetchers.
    pub(crate) records: obs::Counter,
}

pub(crate) fn fetch_path() -> &'static FetchPath {
    static PATH: OnceLock<FetchPath> = OnceLock::new();
    PATH.get_or_init(|| FetchPath {
        latency_micros: obs::histogram("logbus.fetch.micros"),
        records: obs::counter("logbus.fetch.records"),
    })
}

impl FetchPath {
    /// Records one fetch returning `records` records after `elapsed`.
    pub(crate) fn observe(&self, records: u64, elapsed: std::time::Duration) {
        self.latency_micros.record(elapsed.as_micros() as u64);
        self.records.add(records);
    }
}

/// Fleet-wide producer totals (sums over all [`crate::Producer`]
/// instances); the per-instance counts live on each producer.
pub(crate) struct ProducerTotals {
    pub(crate) sent: obs::Counter,
    pub(crate) dropped: obs::Counter,
    pub(crate) flushes: obs::Counter,
}

pub(crate) fn producer_totals() -> &'static ProducerTotals {
    static TOTALS: OnceLock<ProducerTotals> = OnceLock::new();
    TOTALS.get_or_init(|| ProducerTotals {
        sent: obs::counter("logbus.producer.sent"),
        dropped: obs::counter("logbus.producer.dropped"),
        flushes: obs::counter("logbus.producer.flushes"),
    })
}

/// Retry-loop outcomes across every client tier (see
/// [`crate::retry::with_retry`] and the handle-internal retry loops).
pub(crate) struct RetryPath {
    /// Retry attempts made (excludes each call's first attempt).
    pub(crate) attempts: obs::Counter,
    /// Calls that failed transiently but eventually succeeded.
    pub(crate) recoveries: obs::Counter,
    /// Calls abandoned with [`crate::Error::RetriesExhausted`].
    pub(crate) give_ups: obs::Counter,
    /// Give-ups caused by the wall-clock budget (subset of `give_ups`).
    pub(crate) timeouts: obs::Counter,
}

pub(crate) fn retry_path() -> &'static RetryPath {
    static PATH: OnceLock<RetryPath> = OnceLock::new();
    PATH.get_or_init(|| RetryPath {
        attempts: obs::counter("logbus.retry.attempts"),
        recoveries: obs::counter("logbus.retry.recoveries"),
        give_ups: obs::counter("logbus.retry.give_ups"),
        timeouts: obs::counter("logbus.retry.timeouts"),
    })
}

/// Faults injected by an installed [`crate::FaultPlan`], by class.
pub(crate) struct FaultPath {
    pub(crate) errors: obs::Counter,
    pub(crate) ack_losses: obs::Counter,
    pub(crate) duplicates: obs::Counter,
    pub(crate) latencies: obs::Counter,
}

pub(crate) fn fault_path() -> &'static FaultPath {
    static PATH: OnceLock<FaultPath> = OnceLock::new();
    PATH.get_or_init(|| FaultPath {
        errors: obs::counter("logbus.fault.errors"),
        ack_losses: obs::counter("logbus.fault.ack_losses"),
        duplicates: obs::counter("logbus.fault.duplicates"),
        latencies: obs::counter("logbus.fault.latencies"),
    })
}

/// Records queued in [`crate::AsyncProducer`]s but not yet appended.
pub(crate) fn async_queue_depth() -> &'static obs::Gauge {
    static DEPTH: OnceLock<obs::Gauge> = OnceLock::new();
    DEPTH.get_or_init(|| obs::gauge("logbus.async_producer.queue_depth"))
}

/// Records [`crate::AsyncProducer`]s gave up on after a produce failure.
pub(crate) fn async_dropped_records() -> &'static obs::Counter {
    static DROPPED: OnceLock<obs::Counter> = OnceLock::new();
    DROPPED.get_or_init(|| obs::counter("logbus.async_producer.dropped_records"))
}

/// Per-partition leader health: how often a produce found the append
/// lock already held (a second producer contending on the same leader).
pub(crate) struct LeaderPath {
    /// Appends that had to wait for the partition append lock.
    pub(crate) append_contended: obs::Counter,
    /// Appends that took the lock uncontended (fast path).
    pub(crate) append_uncontended: obs::Counter,
}

pub(crate) fn leader_path() -> &'static LeaderPath {
    static PATH: OnceLock<LeaderPath> = OnceLock::new();
    PATH.get_or_init(|| LeaderPath {
        append_contended: obs::counter("logbus.leader.append_contended"),
        append_uncontended: obs::counter("logbus.leader.append_uncontended"),
    })
}

/// Crash-failover activity: elections, fencing, log repair, and the
/// client-visible unavailability window.
pub(crate) struct FailoverPath {
    /// Leader elections completed (each promotes an in-sync follower).
    pub(crate) elections: obs::Counter,
    /// Leader-epoch bumps applied to partition logs (elections plus
    /// rejoin fencing).
    pub(crate) epoch_bumps: obs::Counter,
    /// Records truncated from diverged replica logs at election or
    /// rejoin time.
    pub(crate) truncated_records: obs::Counter,
    /// Client-visible unavailability per outage: first failover-class
    /// error to the next success of the same retried request.
    pub(crate) unavailability_micros: obs::Histogram,
}

pub(crate) fn failover_path() -> &'static FailoverPath {
    static PATH: OnceLock<FailoverPath> = OnceLock::new();
    PATH.get_or_init(|| FailoverPath {
        elections: obs::counter("logbus.failover.elections"),
        epoch_bumps: obs::counter("logbus.failover.epoch_bumps"),
        truncated_records: obs::counter("logbus.failover.truncated_records"),
        unavailability_micros: obs::histogram("logbus.failover.unavailability_micros"),
    })
}

impl FailoverPath {
    /// Records one client-visible outage window.
    pub(crate) fn unavailability(&self, window: std::time::Duration) {
        self.unavailability_micros.record(window.as_micros() as u64);
    }
}

/// Consumer-group coordinator activity.
pub(crate) struct GroupPath {
    /// Membership changes across all groups (each bumps a generation).
    pub(crate) rebalances: obs::Counter,
    /// Generation of the most recently rebalanced group.
    pub(crate) generation: obs::Gauge,
}

pub(crate) fn group_path() -> &'static GroupPath {
    static PATH: OnceLock<GroupPath> = OnceLock::new();
    PATH.get_or_init(|| GroupPath {
        rebalances: obs::counter("logbus.group.rebalances"),
        generation: obs::gauge("logbus.group.generation"),
    })
}
