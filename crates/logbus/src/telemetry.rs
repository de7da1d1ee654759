//! Cached broker-path instruments.
//!
//! Every produce request — through a partition handle, the one-shot
//! `Bus` verbs included — is observed by [`observed_produce`], every fetch
//! by [`observed_fetch`]: one site each, wrapped around the whole
//! request (retries and replication included), so a request costs the
//! same telemetry and is counted exactly once whichever door it came in
//! by. Instruments are resolved once per process into statics: a
//! hot-path call while instrumentation is enabled pays only the atomic
//! adds of the instruments themselves, and while disabled only the
//! `obs::enabled()` branch.

use crate::error::Result;
use crate::record::Record;
use std::sync::OnceLock;

/// Instruments on the produce path.
struct ProducePath {
    /// End-to-end append latency, including the simulated round trip.
    latency_micros: obs::Histogram,
    /// Records per broker-side append.
    batch_records: obs::Histogram,
    /// Total records successfully appended.
    records: obs::Counter,
    /// `bytes::pool_fresh_chunks()` as of the last request: buffers the
    /// chunk pool could not supply, so the allocator (and a first touch
    /// of their pages) did. Flat across a trial means it ran on
    /// recycled memory.
    fresh_chunks: obs::Gauge,
}

fn produce_path() -> &'static ProducePath {
    static PATH: OnceLock<ProducePath> = OnceLock::new();
    PATH.get_or_init(|| ProducePath {
        latency_micros: obs::histogram("logbus.produce.micros"),
        batch_records: obs::histogram("logbus.produce.batch_records"),
        records: obs::counter("logbus.produce.records"),
        fresh_chunks: obs::gauge("bytes.pool.fresh_chunks"),
    })
}

/// Runs one produce request over `records`, timing and counting it when
/// the obs gate is on. The only place a produce is observed.
pub(crate) fn observed_produce(
    records: &mut Vec<Record>,
    produce: impl FnOnce(&mut Vec<Record>) -> Result<u64>,
) -> Result<u64> {
    if !obs::enabled() {
        return produce(records);
    }
    let count = records.len() as u64;
    let started = std::time::Instant::now();
    let result = produce(records);
    let path = produce_path();
    path.latency_micros
        .record(started.elapsed().as_micros() as u64);
    path.batch_records.record(count);
    if result.is_ok() {
        path.records.add(count);
    }
    path.fresh_chunks.set(bytes::pool_fresh_chunks() as i64);
    result
}

/// Instruments on the fetch path.
struct FetchPath {
    /// End-to-end fetch latency, including the simulated round trip.
    latency_micros: obs::Histogram,
    /// Total records returned to fetchers.
    records: obs::Counter,
}

fn fetch_path() -> &'static FetchPath {
    static PATH: OnceLock<FetchPath> = OnceLock::new();
    PATH.get_or_init(|| FetchPath {
        latency_micros: obs::histogram("logbus.fetch.micros"),
        records: obs::counter("logbus.fetch.records"),
    })
}

/// Runs one fetch request (which returns the number of records it
/// appended to the caller's buffer), timing and counting it when the
/// obs gate is on. The only place a fetch is observed.
pub(crate) fn observed_fetch(fetch: impl FnOnce() -> Result<usize>) -> Result<usize> {
    if !obs::enabled() {
        return fetch();
    }
    let started = std::time::Instant::now();
    let result = fetch();
    let path = fetch_path();
    path.latency_micros
        .record(started.elapsed().as_micros() as u64);
    path.records.add(*result.as_ref().unwrap_or(&0) as u64);
    result
}

/// Retry-loop outcomes across every client (see
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

/// Times an [`crate::AsyncProducer`] caller woke the parked sender
/// thread: a futex call on the caller and a thread hand-off per count.
pub(crate) fn async_sender_wakeups() -> &'static obs::Counter {
    static WAKEUPS: OnceLock<obs::Counter> = OnceLock::new();
    WAKEUPS.get_or_init(|| obs::counter("logbus.async_producer.sender_wakeups"))
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

/// Follower replication: what [`crate::topic::Topic::append_range`]
/// moved, so `records / blocks` is the records one `memcpy` carried.
pub(crate) struct ReplicaPath {
    /// Blocks copied from leader logs (one arena run or spilled record).
    pub(crate) blocks: obs::Counter,
    /// Records those blocks held.
    pub(crate) records: obs::Counter,
}

pub(crate) fn replica_path() -> &'static ReplicaPath {
    static PATH: OnceLock<ReplicaPath> = OnceLock::new();
    PATH.get_or_init(|| ReplicaPath {
        blocks: obs::counter("logbus.replica.blocks"),
        records: obs::counter("logbus.replica.records"),
    })
}

impl FailoverPath {
    /// Records one client-visible outage window.
    pub(crate) fn unavailability(&self, window: std::time::Duration) {
        self.unavailability_micros.record(window.as_micros() as u64);
    }
}

/// Reads that gave up at the stall limit: nothing arrived for the whole
/// window with the finish line not reached (see
/// [`crate::TopicReader::next_batch`]).
pub(crate) fn reader_stalled() -> &'static obs::Counter {
    static STALLED: OnceLock<obs::Counter> = OnceLock::new();
    STALLED.get_or_init(|| obs::counter("logbus.reader.stalled"))
}
