//! The data sender: phase 1 of the benchmark process (paper §III-A1).
//!
//! Reads the (generated) input data and forwards it to the message
//! broker, with configurable ingestion rate and acknowledgement level —
//! the same knobs as the paper's Scala data sender.

use crate::data::QueryLogGenerator;
use logbus::{Acks, Broker, BusHandle, Record, RetryPolicy};
use std::time::{Duration, Instant};

/// Data-sender configuration.
#[derive(Debug, Clone)]
pub struct SenderConfig {
    /// Records to send (the paper sends 1,000,001).
    pub records: u64,
    /// Acknowledgement level awaited per batch.
    pub acks: Acks,
    /// Records per produce request.
    pub batch_records: usize,
    /// Optional ingestion rate in records per second.
    pub rate: Option<f64>,
    /// Workload seed.
    pub seed: u64,
}

impl Default for SenderConfig {
    fn default() -> Self {
        SenderConfig {
            records: 1_000_001,
            acks: Acks::Leader,
            batch_records: 512,
            rate: None,
            seed: 2019,
        }
    }
}

/// Outcome of a completed send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendReport {
    /// Records appended to the input topic.
    pub sent: u64,
}

/// Sends the synthetic query log into `topic`, partition 0.
///
/// The input topic is expected to have a single partition so record
/// order is guaranteed (paper §III-A1: Kafka only orders within one
/// partition).
///
/// Records are generated into one reused `batch_records`-sized chunk;
/// each full chunk waits out its share of the ingestion rate, if one is
/// set, and goes out as one request through an idempotent, retrying
/// [`logbus::PartitionWriter`] — a lost ack or a transient broker error resends
/// the chunk and the broker deduplicates it, so the topic holds the
/// generator stream exactly once.
///
/// # Errors
///
/// Returns [`logbus::Error::InvalidConfig`], before sending anything,
/// for a rate that is not positive and finite or is too small for the
/// whole send to have a representable duration; propagates broker errors
/// (unknown topic, etc.).
pub fn send_workload(
    bus: impl Into<BusHandle>,
    topic: &str,
    config: &SenderConfig,
) -> logbus::Result<SendReport> {
    if let Some(rate) = config.rate {
        let whole_send = Duration::try_from_secs_f64(config.records as f64 / rate);
        if !(rate.is_finite() && rate > 0.0) || whole_send.is_err() {
            return Err(logbus::Error::InvalidConfig(format!(
                "unusable ingestion rate: {rate} records per second"
            )));
        }
    }
    let bus = bus.into();
    let retry = RetryPolicy::default();
    let writer = logbus::with_retry(&retry, || bus.partition_writer(topic, 0))?
        .idempotent()
        .with_acks(config.acks)
        .with_retry(retry);
    let mut generator = QueryLogGenerator::new(config.seed);
    let chunk_size = config.batch_records.max(1);
    let mut chunk: Vec<Record> = Vec::with_capacity(chunk_size);
    let started = Instant::now();
    let mut sent = 0u64;
    while sent < config.records {
        let take = (chunk_size as u64).min(config.records - sent);
        for _ in 0..take {
            chunk.push(Record::from_value(generator.next_payload()));
        }
        sent += take;
        if let Some(rate) = config.rate {
            // A chunk sleeps once for its whole deficit: record `sent` is
            // due `sent / rate` seconds after the first.
            let due = Duration::from_secs_f64(sent as f64 / rate);
            std::thread::sleep(due.saturating_sub(started.elapsed()));
        }
        writer.produce_batch_drain(&mut chunk)?;
    }
    Ok(SendReport { sent })
}

/// An open-loop arrival schedule: record `i` is *due* at
/// `start + i / rate`, computed with integer arithmetic so the schedule
/// is exact, monotone, and gap-free no matter what the sending thread
/// experiences.
///
/// This is the coordinated-omission-safe half of the latency benchmark:
/// the event time of a record is its **scheduled** arrival, fixed by the
/// offered rate alone. When the sender stalls (GC-analog pause, broker
/// backpressure, a slow engine draining the topic), the late records
/// keep their original timestamps and ship in a burst — the queueing
/// delay they suffered shows up in the measured latency instead of
/// silently re-basing the clock (the classic closed-loop measurement
/// error).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenLoopSchedule {
    start_micros: i64,
    interval_nanos: u64,
}

impl OpenLoopSchedule {
    /// Creates a schedule starting at `start_micros` (broker-clock µs)
    /// offering `rate_per_second` records per second.
    pub fn new(start_micros: i64, rate_per_second: f64) -> Self {
        let interval_nanos = if rate_per_second > 0.0 {
            (1.0e9 / rate_per_second).round().max(1.0) as u64
        } else {
            u64::MAX
        };
        OpenLoopSchedule {
            start_micros,
            interval_nanos,
        }
    }

    /// The schedule's origin, in broker-clock microseconds.
    pub fn start_micros(&self) -> i64 {
        self.start_micros
    }

    /// The inter-arrival interval, in nanoseconds.
    pub fn interval_nanos(&self) -> u64 {
        self.interval_nanos
    }

    /// The scheduled arrival (= event time) of record `index`, in
    /// microseconds. Pure integer math: `start + ⌊i·interval/1000⌋`.
    pub fn event_time_micros(&self, index: u64) -> i64 {
        let offset_micros = (u128::from(index) * u128::from(self.interval_nanos)) / 1_000;
        self.start_micros.saturating_add(offset_micros as i64)
    }

    /// How many records starting at `next_index` (bounded by `total`)
    /// are due at `now_micros` — the burst size a sender that fell
    /// behind must ship to catch up.
    pub fn due_count(&self, now_micros: i64, next_index: u64, total: u64) -> u64 {
        if next_index >= total || now_micros < self.event_time_micros(next_index) {
            return 0;
        }
        let elapsed = (now_micros - self.start_micros) as u128;
        // event_time(i) <= now  ⇔  ⌊i·interval/1000⌋ <= elapsed
        //                       ⇔  i·interval < (elapsed + 1)·1000
        let last_due = (((elapsed + 1) * 1_000 - 1) / u128::from(self.interval_nanos.max(1)))
            .min(u128::from(total - 1)) as u64;
        last_due + 1 - next_index
    }
}

/// Outcome of an open-loop send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenLoopSendReport {
    /// Records appended.
    pub sent: u64,
    /// Worst observed send lag (actual append wake-up minus scheduled
    /// arrival), in microseconds — how far the sender fell behind its
    /// schedule. The lag is *charged to latency* via the event-time
    /// stamps, never hidden.
    pub max_send_lag_micros: i64,
}

/// Longest single sleep while waiting for the next scheduled arrival;
/// short naps keep the wake-up error well under a millisecond.
const OPEN_LOOP_NAP_MICROS: i64 = 1_000;

/// Streams `records` synthetic query-log records into `topic` partition
/// 0 at the offered rate, open-loop: each record's **event time** is its
/// scheduled arrival from `schedule`, carried as a `"<micros>\t"` prefix
/// on the payload so the sink side can compute per-record end-to-end
/// latency against the output topic's `LogAppendTime`.
///
/// The sender sleeps until a record is due, then ships *every* record
/// that is due at that moment as one append (a stalled sender catches up
/// by bursting at its original timestamps, not by re-timing — the
/// coordinated-omission-safe behaviour).
///
/// # Errors
///
/// Propagates broker errors (unknown topic, etc.).
pub fn send_open_loop(
    broker: &Broker,
    topic: &str,
    schedule: &OpenLoopSchedule,
    records: u64,
    seed: u64,
) -> logbus::Result<OpenLoopSendReport> {
    let clock = broker.clock();
    let mut generator = QueryLogGenerator::new(seed);
    let mut next = 0u64;
    let mut max_lag = 0i64;
    // A burst is one shot: a failed request ends the send, unretried.
    // The writer drains the batch, which keeps its capacity from burst
    // to burst.
    let writer = broker
        .partition_writer(topic, 0)?
        .with_retry(RetryPolicy::none());
    let mut batch: Vec<Record> = Vec::new();
    while next < records {
        let scheduled = schedule.event_time_micros(next);
        let mut now = clock.now_micros();
        while now < scheduled {
            let nap = (scheduled - now).min(OPEN_LOOP_NAP_MICROS) as u64;
            std::thread::sleep(Duration::from_micros(nap));
            now = clock.now_micros();
        }
        max_lag = max_lag.max(now - scheduled);
        let due = schedule.due_count(now, next, records).max(1);
        for i in 0..due {
            let stamped = generator.next_stamped_payload(schedule.event_time_micros(next + i));
            batch.push(Record::from_value(stamped));
        }
        writer.produce_batch_drain(&mut batch)?;
        next += due;
    }
    Ok(OpenLoopSendReport {
        sent: records,
        max_send_lag_micros: max_lag,
    })
}

/// Parses the event-time prefix off an output record produced from a
/// [`send_open_loop`] input. `None` when the record carries no
/// well-formed prefix.
pub fn parse_event_time_micros(payload: &[u8]) -> Option<i64> {
    let end = payload
        .iter()
        .position(|&b| b == b'\t')
        .unwrap_or(payload.len());
    std::str::from_utf8(&payload[..end]).ok()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use logbus::{Bus, Cluster, ClusterConfig, FaultPlan, StoredRecord, TopicConfig};

    /// Everything in partition 0 of `in`.
    fn input(bus: &dyn Bus) -> Vec<StoredRecord> {
        let reader = bus.partition_reader("in", 0).unwrap();
        reader.fetch(0, usize::MAX).unwrap()
    }

    #[test]
    fn sends_exact_count_in_order() {
        let broker = Broker::new();
        broker.create_topic("in", TopicConfig::default()).unwrap();
        let config = SenderConfig {
            records: 500,
            ..SenderConfig::default()
        };
        let report = send_workload(&broker, "in", &config).unwrap();
        assert_eq!(report.sent, 500);
        let records = input(&broker);
        assert_eq!(records.len(), 500);

        // Content equals the generator stream: order preserved.
        let mut generator = QueryLogGenerator::new(config.seed);
        for stored in records {
            assert_eq!(stored.record.value, generator.next_payload());
        }
    }

    #[test]
    fn missing_topic_errors() {
        let broker = Broker::new();
        let config = SenderConfig {
            records: 1,
            ..SenderConfig::default()
        };
        assert!(send_workload(&broker, "absent", &config).is_err());
    }

    #[test]
    fn rate_limited_send_takes_time() {
        let broker = Broker::new();
        broker.create_topic("in", TopicConfig::default()).unwrap();
        let config = SenderConfig {
            records: 50,
            rate: Some(2_000.0),
            ..SenderConfig::default()
        };
        let start = std::time::Instant::now();
        send_workload(&broker, "in", &config).unwrap();
        assert!(start.elapsed() >= std::time::Duration::from_millis(20));
    }

    #[test]
    fn unusable_rates_are_rejected_before_anything_is_sent() {
        let broker = Broker::new();
        broker.create_topic("in", TopicConfig::default()).unwrap();
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE] {
            let config = SenderConfig {
                records: 10,
                rate: Some(rate),
                ..SenderConfig::default()
            };
            let result = send_workload(&broker, "in", &config);
            assert!(
                matches!(result, Err(logbus::Error::InvalidConfig(_))),
                "rate {rate}: {result:?}"
            );
            assert_eq!(input(&broker).len(), 0, "rate {rate}");
        }
    }

    /// A plan of the faults a preload can meet: failed produces, acks
    /// lost after the append, failed metadata requests. Two consecutive
    /// faults per broker at most, so even a request that meets the
    /// leader's and both followers' runs back to back fits the default
    /// retry budget.
    fn preload_faults(seed: u64) -> FaultPlan {
        let mut plan = FaultPlan::seeded(seed);
        plan.produce_error = 0.2;
        plan.ack_loss = 0.2;
        plan.metadata_error = 0.2;
        plan.max_consecutive = 2;
        plan.duplicate = 0.0;
        plan.fetch_error = 0.0;
        plan.extra_latency = 0.0;
        plan
    }

    const FAULTED_PRELOAD: SenderConfig = SenderConfig {
        records: 1_500,
        acks: Acks::All,
        batch_records: 16,
        rate: None,
        seed: 31,
    };

    fn assert_generator_stream_exactly_once(stored: &[logbus::StoredRecord]) {
        assert_eq!(
            stored.len() as u64,
            FAULTED_PRELOAD.records,
            "no loss, no duplicate"
        );
        let mut generator = QueryLogGenerator::new(FAULTED_PRELOAD.seed);
        for (i, record) in stored.iter().enumerate() {
            assert_eq!(record.offset, i as u64);
            assert_eq!(record.record.value, generator.next_payload(), "record {i}");
        }
    }

    #[test]
    fn preload_is_exactly_once_on_a_faulted_broker() {
        let broker = Broker::new();
        broker.create_topic("in", TopicConfig::default()).unwrap();
        broker.install_fault_plan(preload_faults(47));
        let report = send_workload(&broker, "in", &FAULTED_PRELOAD).unwrap();
        broker.clear_fault_plan();
        assert_eq!(report.sent, FAULTED_PRELOAD.records);
        assert_generator_stream_exactly_once(&input(&broker));
    }

    #[test]
    fn preload_is_exactly_once_on_a_faulted_rf3_cluster_under_acks_all() {
        let cluster = Cluster::new(ClusterConfig { brokers: 3 });
        let replicated = TopicConfig::default().replication_factor(3);
        cluster.create_topic("in", replicated).unwrap();
        for (b, seed) in [53, 59, 61].into_iter().enumerate() {
            cluster.broker(b).install_fault_plan(preload_faults(seed));
        }
        send_workload(&cluster, "in", &FAULTED_PRELOAD).unwrap();
        for b in 0..3 {
            cluster.broker(b).clear_fault_plan();
        }
        assert_generator_stream_exactly_once(&input(&cluster));
        // Acks::All: every acknowledged chunk is on every replica.
        for b in 0..3 {
            assert_generator_stream_exactly_once(&input(cluster.broker(b)));
        }
    }

    #[test]
    fn schedule_event_times_follow_the_rate() {
        let s = OpenLoopSchedule::new(1_000_000, 2_000.0); // 500 µs apart
        assert_eq!(s.interval_nanos(), 500_000);
        assert_eq!(s.event_time_micros(0), 1_000_000);
        assert_eq!(s.event_time_micros(1), 1_000_500);
        assert_eq!(s.event_time_micros(10), 1_005_000);
    }

    #[test]
    fn due_count_bursts_after_a_stall() {
        let s = OpenLoopSchedule::new(0, 2_000.0); // due at 0, 500, 1000, ...
        assert_eq!(s.due_count(-1, 0, 100), 0);
        assert_eq!(s.due_count(0, 0, 100), 1);
        assert_eq!(s.due_count(499, 0, 100), 1);
        assert_eq!(s.due_count(1_000, 0, 100), 3);
        // A 10 ms stall leaves 21 records due; they keep their original
        // event times.
        assert_eq!(s.due_count(10_000, 0, 100), 21);
        assert_eq!(s.due_count(10_000, 5, 100), 16);
        // Bounded by the workload size.
        assert_eq!(s.due_count(1_000_000, 0, 100), 100);
    }

    #[test]
    fn sub_microsecond_intervals_stay_gap_free() {
        // 4M records/s: interval 250 ns, four records per microsecond.
        let s = OpenLoopSchedule::new(0, 4_000_000.0);
        assert_eq!(s.event_time_micros(3), 0);
        assert_eq!(s.event_time_micros(4), 1);
        assert_eq!(s.due_count(0, 0, 1_000), 4);
    }

    #[test]
    fn event_time_prefix_roundtrips_through_queries() {
        let mut generator = QueryLogGenerator::new(7);
        for micros in [123_456_789, 0, -1, -987_654_321, i64::MAX, i64::MIN] {
            let stamped = generator.next_stamped_payload(micros);
            // Identity/grep/sample keep the record whole.
            assert_eq!(parse_event_time_micros(&stamped), Some(micros));
            // Projection cuts at the first tab — exactly the prefix column.
            let cut = stamped.iter().position(|&b| b == b'\t').unwrap();
            assert_eq!(parse_event_time_micros(&stamped[..cut]), Some(micros));
            assert_eq!(stamped[..cut], *micros.to_string().as_bytes());
        }
        assert_eq!(parse_event_time_micros(b"junk"), None);
        assert_eq!(parse_event_time_micros(b""), None);
    }

    #[test]
    fn open_loop_send_stamps_schedule_times() {
        let broker = Broker::new();
        broker.create_topic("in", TopicConfig::default()).unwrap();
        let schedule = OpenLoopSchedule::new(broker.now_micros(), 10_000.0);
        let report = send_open_loop(&broker, "in", &schedule, 200, 7).unwrap();
        assert_eq!(report.sent, 200);
        assert!(report.max_send_lag_micros >= 0);
        let stored = input(&broker);
        assert_eq!(stored.len(), 200);
        let mut generator = QueryLogGenerator::new(7);
        for (i, record) in stored.iter().enumerate() {
            let event = parse_event_time_micros(&record.record.value).unwrap();
            assert_eq!(event, schedule.event_time_micros(i as u64), "record {i}");
            // Append time is never before the scheduled arrival: queue
            // delay is charged to latency, not hidden.
            assert!(record.timestamp.as_micros() >= event, "record {i}");
            // Payload after the prefix is the untouched generator stream.
            let value = &record.record.value;
            let tab = value.iter().position(|&b| b == b'\t').unwrap();
            assert_eq!(&value[tab + 1..], &generator.next_payload()[..]);
        }
    }

    mod schedule_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The open-loop schedule is monotone and gap-free no matter
            /// how the sending thread stalls: replaying the sender loop
            /// against an arbitrary injected-stall pattern emits every
            /// index exactly once, with exactly the schedule's event
            /// time, in non-decreasing order.
            #[test]
            fn scheduled_send_times_monotone_and_gap_free_under_stalls(
                rate in 1.0f64..2_000_000.0,
                total in 1u64..2_000,
                start in 0i64..1_000_000_000,
                stalls in prop::collection::vec(0i64..50_000, 0..64),
            ) {
                let schedule = OpenLoopSchedule::new(start, rate);
                let mut emitted: Vec<(u64, i64)> = Vec::new();
                let mut next = 0u64;
                let mut now = start;
                let mut stall_at = stalls.into_iter();
                // Replay of the send_open_loop control flow with a
                // simulated clock instead of sleeps.
                while next < total {
                    let scheduled = schedule.event_time_micros(next);
                    if now < scheduled {
                        now = scheduled; // the sleep-until-due branch
                    }
                    // Injected stall: the clock jumps before the burst
                    // size is computed.
                    if let Some(stall) = stall_at.next() {
                        now += stall;
                    }
                    let due = schedule.due_count(now, next, total).max(1);
                    for i in 0..due {
                        emitted.push((next + i, schedule.event_time_micros(next + i)));
                    }
                    next += due;
                }
                // Gap-free: every index exactly once, in order.
                prop_assert_eq!(emitted.len() as u64, total);
                for (i, (index, event)) in emitted.iter().enumerate() {
                    prop_assert_eq!(*index, i as u64);
                    prop_assert_eq!(*event, schedule.event_time_micros(i as u64));
                }
                // Monotone, and consecutive gaps never exceed the
                // (rounded-up) interval — stalls never stretch the
                // schedule.
                let ceil_gap = schedule.interval_nanos().div_ceil(1_000) as i64;
                for pair in emitted.windows(2) {
                    prop_assert!(pair[1].1 >= pair[0].1);
                    prop_assert!(pair[1].1 - pair[0].1 <= ceil_gap);
                }
            }
        }
    }
}
