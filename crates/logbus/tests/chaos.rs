//! Chaos properties: at-least-once delivery under arbitrary seeded
//! fault plans.
//!
//! A random [`FaultPlan`] is installed on the broker, a random record
//! stream is produced through the retrying partition handles, and the suite
//! asserts the delivery contract from DESIGN.md §10: **no record is
//! lost**, duplicates are **bounded** (and absent entirely for the
//! idempotent writers), and `LogAppendTime` stays **monotone** per
//! partition even across fault-recovery retries.

use logbus::{with_retry, Broker, FaultPlan, Record, RetryPolicy, TopicConfig};
use proptest::prelude::*;

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
                // Latency faults only slow the suite down; correctness is
                // covered by the error/ack-loss/duplicate classes.
                plan.extra_latency = 0.0;
                plan
            },
        )
}

fn arb_values() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(any::<u32>(), 1..150)
}

proptest! {
    /// Idempotent batched produce plus a retrying reader — both resolved
    /// and driven entirely under the plan — yields exactly-once contents:
    /// every value survives, nothing is duplicated, offsets are dense,
    /// and broker append timestamps never run backwards.
    #[test]
    fn idempotent_pipeline_is_exactly_once(plan in arb_plan(), values in arb_values(), batch in 1usize..32) {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        broker.install_fault_plan(plan);

        let retry = RetryPolicy::default();
        let writer = with_retry(&retry, || broker.partition_writer("t", 0)).unwrap().idempotent();
        let mut pending = Vec::with_capacity(batch);
        for chunk in values.chunks(batch) {
            pending.extend(chunk.iter().map(|v| Record::from_value(v.to_le_bytes().to_vec())));
            writer.produce_batch_drain(&mut pending).unwrap();
        }

        let reader = with_retry(&retry, || broker.partition_reader("t", 0)).unwrap();
        let mut seen = Vec::new();
        while reader.fetch_into(seen.len() as u64, 64, &mut seen).unwrap() > 0 {}
        broker.clear_fault_plan();

        prop_assert_eq!(seen.len(), values.len(), "no loss, no duplicates");
        let mut last_stamp = i64::MIN;
        for (i, (stored, sent)) in seen.iter().zip(&values).enumerate() {
            prop_assert_eq!(stored.offset, i as u64, "offsets stay dense");
            prop_assert_eq!(&stored.record.value[..], &sent.to_le_bytes()[..]);
            let stamp = stored.timestamp.as_micros();
            prop_assert!(stamp >= last_stamp, "LogAppendTime must be monotone");
            last_stamp = stamp;
        }
    }

    /// The plain (non-idempotent) writer path is at-least-once: under
    /// lost acks and injected duplicate appends records may repeat, but
    /// never more than the plan's duplication bound allows, and every
    /// produced value is present after recovery.
    #[test]
    fn plain_writer_is_at_least_once_with_bounded_duplicates(plan in arb_plan(), values in arb_values()) {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        // Resolve the handle fault-free (resolution deliberately does
        // not retry — clients own that); the produce loop below runs
        // entirely under the plan.
        let writer = broker.partition_writer("t", 0).unwrap();
        broker.install_fault_plan(plan.clone());
        for v in &values {
            writer.produce(Record::from_value(v.to_le_bytes().to_vec())).unwrap();
        }
        broker.clear_fault_plan();

        let reader = broker.partition_reader("t", 0).unwrap();
        let stored = reader.fetch(0, values.len() * 4 + 64).unwrap();
        prop_assert!(stored.len() >= values.len(), "at-least-once: nothing lost");

        // Each produce makes at most `max_consecutive` lost-ack resends,
        // and the broker injects at most `max_duplicates` extra appends
        // per key over the plan's life.
        let per_record_bound = 1 + plan.max_consecutive as usize;
        let bound = values.len() * per_record_bound + plan.max_duplicates as usize;
        prop_assert!(
            stored.len() <= bound,
            "duplicates are bounded: {} stored, bound {}",
            stored.len(),
            bound
        );

        // Every sent value appears, in order, allowing repeats between —
        // i.e. the sent stream is a subsequence of the stored stream.
        let mut cursor = stored.iter();
        for v in &values {
            let bytes = v.to_le_bytes();
            prop_assert!(
                cursor.any(|s| s.record.value[..] == bytes[..]),
                "value {v} lost under fault plan"
            );
        }

        let mut last_stamp = i64::MIN;
        for s in &stored {
            let stamp = s.timestamp.as_micros();
            prop_assert!(stamp >= last_stamp, "LogAppendTime must be monotone");
            last_stamp = stamp;
        }
    }

    /// The pooled drain-batch path is exactly-once under any plan: each
    /// batch drains out of the reused pool vector on success (fault
    /// recovery happens inside the idempotent writer), the vector leaks
    /// nothing across batches, and the log holds exactly the sent stream.
    #[test]
    fn pooled_drain_batches_are_exactly_once_under_faults(
        plan in arb_plan(),
        values in arb_values(),
        batch in 1usize..24,
    ) {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        let writer = broker
            .partition_writer("t", 0)
            .unwrap()
            .idempotent()
            .with_retry(logbus::RetryPolicy::default());
        broker.install_fault_plan(plan);

        // One pool vector reused for every batch — the sinks' steady
        // state.
        let mut buffer = logbus::pool::record_vec();
        for chunk in values.chunks(batch) {
            prop_assert!(buffer.is_empty(), "nothing leaks across batches");
            for v in chunk {
                buffer.push(Record::from_value(v.to_le_bytes().to_vec()));
            }
            writer.produce_batch_drain(&mut buffer).unwrap();
            prop_assert!(buffer.is_empty(), "success drains the batch");
        }
        broker.clear_fault_plan();
        logbus::pool::recycle_record_vec(buffer);

        let reader = broker.partition_reader("t", 0).unwrap();
        let stored = reader.fetch(0, values.len() + 64).unwrap();
        prop_assert_eq!(stored.len(), values.len(), "exactly-once");
        for (i, (s, v)) in stored.iter().zip(&values).enumerate() {
            prop_assert_eq!(s.offset, i as u64);
            prop_assert_eq!(&s.record.value[..], &v.to_le_bytes()[..]);
        }
    }
}

/// End-of-suite gate for the `check-sync` build: after every chaos
/// scenario above ran, the shim's lock-order graph must be acyclic and
/// the broker append witnesses untripped. Named `zzz_` so libtest's
/// alphabetical order runs it last (CI passes `--test-threads=1`).
#[cfg(feature = "check-sync")]
#[test]
fn zzz_sync_checker_is_clean_after_chaos() {
    parking_lot::sync_check::assert_clean("logbus chaos suite");
    println!("{}", parking_lot::sync_check::report());
}
