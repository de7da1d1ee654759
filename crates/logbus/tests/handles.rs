//! Integration tests for the cached partition handles: equivalence with
//! the named lookup path, and correctness under concurrent use.
//!
//! The produce doors run under generated fault plans (ack loss and
//! duplicates included), and four writers share one partition lock, so
//! under `--features check-sync` the `zzz_` gate additionally asserts
//! the lock-order graph stayed acyclic and no offset or append-time
//! witness tripped; CI runs this file with `--test-threads=1` there.

use logbus::{with_retry, Broker, FaultPlan, Record, RetryPolicy, TopicConfig};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_payloads() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..200)
}

/// The plan shape `tests/chaos.rs` draws: every fault class but latency
/// (which only slows the suite down).
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        0.0..0.4f64,
        0.0..0.4f64,
        0.0..0.4f64,
        0.0..0.3f64,
        0.0..0.2f64,
        0u32..8,
        1u32..4,
    )
        .prop_map(
            |(seed, produce, fetch, metadata, ack_loss, duplicate, max_dups, max_consecutive)| {
                let mut plan = FaultPlan::seeded(seed);
                plan.produce_error = produce;
                plan.fetch_error = fetch;
                plan.metadata_error = metadata;
                plan.ack_loss = ack_loss;
                plan.duplicate = duplicate;
                plan.max_duplicates = max_dups;
                plan.max_consecutive = max_consecutive;
                plan.extra_latency = 0.0;
                plan
            },
        )
}

fn payload_log(broker: &Broker) -> Vec<Vec<u8>> {
    broker
        .fetch("t", 0, 0, usize::MAX)
        .unwrap()
        .into_iter()
        .map(|stored| stored.record.value.to_vec())
        .collect()
}

proptest! {
    /// Same log whichever door you use: the same batches through the
    /// named `Broker::produce_batch` (retried by the caller) and through
    /// an idempotent `PartitionWriter` meet the same seeded fault plan
    /// attempt for attempt — the named door draws one produce decision
    /// per attempt and no metadata decision — so neither loses a
    /// payload, and the sequenced door ends exactly-once and in order.
    #[test]
    fn named_and_handle_doors_build_the_same_log(
        plan in arb_plan(),
        batches in prop::collection::vec(prop::collection::vec(any::<u32>(), 1..8), 1..40),
    ) {
        let named = Broker::new();
        let handled = Broker::new();
        for broker in [&named, &handled] {
            broker.create_topic("t", TopicConfig::default()).unwrap();
        }
        // Resolved before the plan goes in: a writer costs one metadata
        // decision, the named door must cost none.
        let writer = handled.partition_writer("t", 0).unwrap().idempotent();
        named.install_fault_plan(plan.clone());
        handled.install_fault_plan(plan);

        let policy = RetryPolicy::default();
        let mut sent: Vec<Vec<u8>> = Vec::new();
        for (b, batch) in batches.iter().enumerate() {
            let records = || -> Vec<Record> {
                batch
                    .iter()
                    .map(|v| Record::from_value(format!("{b}:{v}")))
                    .collect()
            };
            sent.extend(records().into_iter().map(|r| r.value.to_vec()));
            with_retry(&policy, || named.produce_batch("t", 0, records())).unwrap();
            writer.produce_batch(records()).unwrap();
        }

        // Both brokers drew the same number of decisions per stream iff
        // their next draws agree: probe each stream with one-shot named
        // requests (a desynchronised stream diverges within a few draws).
        for probe in 0..24 {
            let record = || Record::from_value(format!("probe{probe}"));
            prop_assert_eq!(
                named.produce("t", 0, record()).map(drop),
                handled.produce("t", 0, record()).map(drop),
                "produce streams diverged at probe {}", probe
            );
            prop_assert_eq!(
                named.latest_offset("t", 0).map(drop),
                handled.latest_offset("t", 0).map(drop),
                "metadata streams diverged at probe {}", probe
            );
        }
        named.clear_fault_plan();
        handled.clear_fault_plan();

        // (b) exactly once, in order — before the probes' tail.
        let exact = payload_log(&handled);
        prop_assert_eq!(&exact[..sent.len()], &sent[..]);
        // (a) at least once: a lost ack or a duplicate append repeats a
        // whole batch, but nothing is missing and first copies keep order.
        let at_least = payload_log(&named);
        let mut expected = sent.iter();
        let mut next = expected.next();
        for value in &at_least {
            if Some(value) == next {
                next = expected.next();
            }
        }
        prop_assert_eq!(next, None, "named door lost a payload");
    }

    /// The handle-based read path (`PartitionReader::fetch` /
    /// `fetch_into`) and broker-level `fetch_into` return byte-identical
    /// results to the named `Broker::fetch`, for arbitrary payloads,
    /// offsets, and fetch sizes.
    #[test]
    fn handle_reads_match_named_fetch(
        payloads in arb_payloads(),
        read_offset in 0u64..250,
        max in 1usize..300,
    ) {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        for p in &payloads {
            broker.produce("t", 0, Record::from_value(p.clone())).unwrap();
        }
        let offset = read_offset.min(payloads.len() as u64);
        let named = broker.fetch("t", 0, offset, max).unwrap();

        let reader = broker.partition_reader("t", 0).unwrap();
        prop_assert_eq!(&reader.fetch(offset, max).unwrap(), &named);

        let mut via_handle = Vec::new();
        let appended = reader.fetch_into(offset, max, &mut via_handle).unwrap();
        prop_assert_eq!(appended, named.len());
        prop_assert_eq!(&via_handle, &named);

        let mut via_broker = Vec::new();
        let appended = broker.fetch_into("t", 0, offset, max, &mut via_broker).unwrap();
        prop_assert_eq!(appended, named.len());
        prop_assert_eq!(&via_broker, &named);
    }

    /// `fetch_into` appends without clearing: pre-existing buffer contents
    /// survive and the suffix equals the named fetch.
    #[test]
    fn fetch_into_appends_after_existing_records(
        payloads in arb_payloads(),
        max in 1usize..300,
    ) {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        for p in &payloads {
            broker.produce("t", 0, Record::from_value(p.clone())).unwrap();
        }
        let reader = broker.partition_reader("t", 0).unwrap();
        let mut buffer = reader.fetch(0, 3).unwrap();
        let prefix = buffer.clone();
        let appended = reader.fetch_into(0, max, &mut buffer).unwrap();
        prop_assert_eq!(&buffer[..prefix.len()], &prefix[..]);
        prop_assert_eq!(&buffer[prefix.len()..], &broker.fetch("t", 0, 0, max).unwrap()[..]);
        prop_assert_eq!(buffer.len(), prefix.len() + appended);
    }
}

/// Several threads producing through clones of one `PartitionWriter`
/// while a reader thread drains the partition: offsets stay dense, every
/// record arrives exactly once, and `LogAppendTime` is monotone.
#[test]
fn concurrent_handle_producers_and_reader() {
    const WRITERS: usize = 4;
    const PER_WRITER: u64 = 2_000;
    const TOTAL: u64 = WRITERS as u64 * PER_WRITER;

    let broker = Broker::new();
    broker.create_topic("t", TopicConfig::default()).unwrap();
    let writer = Arc::new(broker.partition_writer("t", 0).unwrap());

    let producers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let writer = writer.clone();
            std::thread::spawn(move || {
                for i in 0..PER_WRITER {
                    writer
                        .produce(Record::from_value(format!("w{w}-{i}")))
                        .unwrap();
                }
            })
        })
        .collect();

    let reader = broker.partition_reader("t", 0).unwrap();
    let drain = std::thread::spawn(move || {
        let mut seen = Vec::new();
        let mut offset = 0u64;
        let mut buffer = Vec::new();
        while seen.len() < TOTAL as usize {
            buffer.clear();
            let appended = reader.fetch_into(offset, 512, &mut buffer).unwrap();
            if appended == 0 {
                std::thread::yield_now();
                continue;
            }
            offset = buffer.last().unwrap().offset + 1;
            seen.append(&mut buffer);
        }
        seen
    });

    for p in producers {
        p.join().unwrap();
    }
    let seen = drain.join().unwrap();

    assert_eq!(seen.len() as u64, TOTAL);
    // Dense offsets: 0..TOTAL with no gaps or duplicates.
    for (i, stored) in seen.iter().enumerate() {
        assert_eq!(stored.offset, i as u64);
    }
    // Monotone broker-side append stamps.
    assert!(seen.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
    // Each writer's own records arrive in its send order.
    for w in 0..WRITERS {
        let prefix = format!("w{w}-");
        let mine: Vec<_> = seen
            .iter()
            .filter(|s| s.record.value.starts_with(prefix.as_bytes()))
            .collect();
        assert_eq!(mine.len() as u64, PER_WRITER);
        for (i, stored) in mine.iter().enumerate() {
            let expected = format!("w{w}-{i}");
            assert_eq!(&stored.record.value[..], expected.as_bytes());
        }
    }
}

/// Handle-based and named produces interleaved from different threads
/// still yield dense offsets and a totally ordered log.
#[test]
fn mixed_named_and_handle_producers() {
    const PER_SIDE: u64 = 3_000;

    let broker = Broker::new();
    broker.create_topic("t", TopicConfig::default()).unwrap();
    let writer = broker.partition_writer("t", 0).unwrap();

    let named_broker = broker.clone();
    let named = std::thread::spawn(move || {
        for i in 0..PER_SIDE {
            named_broker
                .produce("t", 0, Record::from_value(format!("n{i}")))
                .unwrap();
        }
    });
    let handled = std::thread::spawn(move || {
        for i in 0..PER_SIDE {
            writer.produce(Record::from_value(format!("h{i}"))).unwrap();
        }
    });
    named.join().unwrap();
    handled.join().unwrap();

    let all = broker.fetch("t", 0, 0, (2 * PER_SIDE) as usize).unwrap();
    assert_eq!(all.len() as u64, 2 * PER_SIDE);
    for (i, stored) in all.iter().enumerate() {
        assert_eq!(stored.offset, i as u64);
    }
    assert!(all.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
}

/// End-of-suite gate for the `check-sync` build: every test above wrote
/// through the named and handle doors — faulted arms, concurrent writers
/// and a reader included. The lock-order graph must be acyclic and no
/// witness may have tripped. Named `zzz_` so libtest's alphabetical
/// order runs it last (CI passes `--test-threads=1`).
#[cfg(feature = "check-sync")]
#[test]
fn zzz_sync_checker_is_clean_after_handles() {
    parking_lot::sync_check::assert_clean("logbus handle suite");
    println!("{}", parking_lot::sync_check::report());
}
