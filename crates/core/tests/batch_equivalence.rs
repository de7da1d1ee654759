//! Equivalence suite for the batched data plane (DESIGN.md §9): the
//! vectorized operator chains and the allocation-free Beam coder path
//! must be invisible in the results. Every implementation — the three
//! native engines and the three abstraction-layer runners — has to
//! produce exactly the bytes of the per-element reference
//! [`Query::apply`], for all four queries, at parallelism 1 and 2.
//!
//! Parallelism 1 asserts byte-identical **and order-preserving** output.
//! Parallelism 2 compares as multisets: repartitioning (the dstream
//! runner repartitions every micro-batch, rill splits the source across
//! subtasks) may legally interleave outputs, but must neither drop,
//! duplicate, nor alter a single byte. Parallelism 4 runs against a
//! **multi-partition** input topic (records key-hash routed with
//! `logbus::partition_for_key`) so the engines' consumer groups have to
//! split real partitions — again compared as multisets.

use bytes::Bytes;
use logbus::{partition_for_key, Acks, Broker, Record, TopicConfig};
use proptest::prelude::*;
use streambench_core::trial::{self, Trial};
use streambench_core::{all_setups, BenchError, Query, QueryLogGenerator, Setup, System};

/// Partition count of the multi-partition equivalence phase.
const INPUT_PARTITIONS: u32 = 4;

const RECORDS: u64 = 400;
const SEED: u64 = 97;
const BATCH_RECORDS: usize = 128;

/// Loads the standard workload into `broker`'s `input` topic; the
/// returned trial runs from it.
fn loaded(broker: &Broker, records: u64, seed: u64) -> Trial {
    let trial = Trial::on_broker(broker, records, seed);
    trial.preload(Acks::Leader).unwrap();
    trial
}

/// A broker whose `input` topic has `partitions` partitions, loaded
/// with the standard workload key-hash routed with `partition_for_key`
/// (key = the payload's first column).
fn load_input_partitioned(records: u64, seed: u64, partitions: u32) -> Broker {
    let broker = Broker::new();
    broker
        .create_topic("input", TopicConfig::default().partitions(partitions))
        .unwrap();
    let mut batches: Vec<Vec<Record>> = vec![Vec::new(); partitions as usize];
    for payload in QueryLogGenerator::new(seed).payloads(records) {
        let cut = payload
            .iter()
            .position(|&b| b == b'\t')
            .unwrap_or(payload.len());
        let key = payload.slice(..cut);
        let partition = partition_for_key(&key, partitions);
        batches[partition as usize].push(Record::from_key_value(key, payload));
    }
    for (partition, batch) in (0..partitions).zip(batches) {
        broker.produce_batch("input", partition, batch).unwrap();
    }
    broker
}

fn quiet(engine: &dyn Fn() -> Result<(), BenchError>) -> Result<(), BenchError> {
    engine()
}

/// Runs `query` on `setup` through the production dispatch into a fresh
/// `output` topic and checks the drained bytes against the per-element
/// reference: in order at parallelism 1, as a multiset above.
fn assert_matches_reference(
    trial: &Trial,
    setup: Setup,
    query: Query,
    output: &str,
    around: impl FnOnce(&dyn Fn() -> Result<(), BenchError>) -> Result<(), BenchError>,
) {
    let outcome = trial
        .run(setup, query, output, BATCH_RECORDS, around)
        .unwrap();
    outcome
        .engine
        .unwrap_or_else(|e| panic!("{setup} failed ({query}): {e}"));
    assert!(!outcome.outputs.is_empty(), "workload must produce output");
    trial::verify(trial, setup, query, &outcome.outputs)
        .unwrap_or_else(|e| panic!("{setup} must match the reference ({query}): {e}"));
}

/// Runs all six implementations at parallelism 1 and 2 (single-partition
/// input), then at parallelism 4 against a 4-partition key-routed input,
/// checking each against the per-element reference.
fn assert_query_equivalence(query: Query) {
    let trial = loaded(&Broker::new(), RECORDS, SEED);
    for setup in all_setups(&[1, 2]) {
        assert_matches_reference(&trial, setup, query, &format!("out-{setup}"), quiet);
    }

    // Parallelism 4 over a genuinely partitioned input: the consumer
    // group splits 4 partitions across the parallel sources, and the
    // union of their outputs must still be the reference multiset.
    let partitioned = load_input_partitioned(RECORDS, SEED, INPUT_PARTITIONS);
    let trial = Trial::on_broker(&partitioned, RECORDS, SEED);
    for setup in all_setups(&[4]) {
        assert_matches_reference(&trial, setup, query, &format!("out-{setup}-multi"), quiet);
    }
}

/// Delivery-guarantee acceptance: under a seeded plan of transient
/// broker faults (errors, lost acks, duplicates, latency), every
/// implementation must still produce exactly the fault-free reference
/// bytes — in order at parallelism 1, as a multiset at parallelism 2.
/// Retries ride out the errors and the idempotent output path dedups
/// lost-ack resends, so the faults are invisible in the results.
#[test]
fn all_impls_match_reference_under_fault_plan() {
    for query in Query::ALL {
        let broker = Broker::new();
        let trial = loaded(&broker, RECORDS, SEED);
        for setup in all_setups(&[1, 2]) {
            assert_matches_reference(&trial, setup, query, &format!("chaos-{setup}"), |engine| {
                broker.install_fault_plan(logbus::FaultPlan::seeded(SEED ^ 0x00C0_FFEE));
                let result = engine();
                broker.clear_fault_plan();
                result
            });
        }
    }
}

#[test]
fn identity_matches_per_element_reference() {
    assert_query_equivalence(Query::Identity);
}

/// The equivalence matrix must actually exercise the pooled zero-copy
/// data plane, not a bypass: running one cell of every implementation
/// visibly turns the pool tier over (buffers are both reused and
/// recycled). Guards against a refactor quietly routing the engines
/// around the pooled batch path while the byte-equivalence still holds.
#[test]
fn pool_tier_is_live_during_equivalence_runs() {
    let trial = loaded(&Broker::new(), RECORDS, SEED);
    let (reused_before, recycled_before) = logbus::pool::stats();
    for setup in all_setups(&[1]) {
        let topic = format!("pool-probe-{setup}");
        assert_matches_reference(&trial, setup, Query::Identity, &topic, quiet);
    }
    let (reused_after, recycled_after) = logbus::pool::stats();
    assert!(
        reused_after > reused_before,
        "equivalence runs drew no buffers from the pool tier"
    );
    assert!(
        recycled_after > recycled_before,
        "equivalence runs returned no buffers to the pool tier"
    );
}

#[test]
fn sample_matches_per_element_reference() {
    assert_query_equivalence(Query::Sample);
}

#[test]
fn projection_matches_per_element_reference() {
    assert_query_equivalence(Query::Projection);
}

#[test]
fn grep_matches_per_element_reference() {
    assert_query_equivalence(Query::Grep);
}

proptest! {
    /// Randomized workloads through the fully batched rill path, native
    /// and Beam: whatever the seed and record count, the batched chain
    /// produces exactly the per-element reference — in order at
    /// parallelism 1, as a multiset at parallelism 2.
    #[test]
    fn batched_rill_chain_equals_per_element_reference(seed in any::<u64>(), n in 20u64..120) {
        let query = Query::ALL[(seed % 4) as usize];
        let trial = loaded(&Broker::new(), n, seed);
        for setup in all_setups(&[1, 2]) {
            if setup.system != System::Rill {
                continue;
            }
            let outcome = trial
                .run(setup, query, &format!("out-{setup}"), BATCH_RECORDS, quiet)
                .unwrap();
            prop_assert!(outcome.engine.is_ok(), "{}: {:?}", setup, outcome.engine);
            let verdict = trial::verify(&trial, setup, query, &outcome.outputs);
            prop_assert!(verdict.is_ok(), "{}: {:?}", setup, verdict);
        }
    }
}

/// Chaos variant with a **rebalance mid-run**: a native rill job at
/// parallelism 2 drains a 4-partition input in a named consumer group
/// while (a) a seeded fault plan injects transient broker faults and
/// (b) a disturber member joins the same group mid-run — forcing the
/// engine subtasks to commit and hand partitions over — holds its
/// assignment briefly, then leaves, handing the partitions back. The
/// commit-then-release handover must make the whole dance invisible:
/// the output is exactly the fault-free reference multiset, nothing
/// lost, nothing duplicated.
#[test]
fn group_rebalance_mid_run_is_exactly_once() {
    use logbus::{AssignmentStrategy, Bus, GroupMember};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    const N: u64 = 2_000;
    const GROUP: &str = "chaos-rebalance";
    let broker = load_input_partitioned(N, SEED, INPUT_PARTITIONS);
    // Identity: the reference output is the input.
    let mut expected_sorted = QueryLogGenerator::new(SEED).payloads(N);
    expected_sorted.sort();
    broker
        .create_topic("rebalance-out", TopicConfig::default())
        .unwrap();
    broker.install_fault_plan(logbus::FaultPlan::seeded(SEED ^ 0x0BA1_A4CE));

    let disturber = std::thread::spawn({
        let broker = broker.clone();
        move || {
            let bus: Arc<dyn Bus> = Arc::new(broker);
            // Wait for the engine's group to show committed progress so
            // the join really lands mid-run (bounded: the job may drain
            // everything before we get in — then the join/leave churn
            // still exercises the coordinator, just without a revoke).
            let deadline = Instant::now() + Duration::from_secs(5);
            while Instant::now() < deadline {
                let committed: u64 = (0..INPUT_PARTITIONS)
                    .filter_map(|p| bus.committed_offset(GROUP, "input", p))
                    .sum();
                if committed > 0 {
                    break;
                }
                std::thread::yield_now();
            }
            // Joining under the fault plan: retry transient errors.
            let mut member = loop {
                match GroupMember::join(
                    bus.clone(),
                    GROUP,
                    "disturber",
                    &["input"],
                    AssignmentStrategy::Range,
                ) {
                    Ok(member) => break member,
                    Err(_) => std::thread::yield_now(),
                }
            };
            let hold = Instant::now() + Duration::from_millis(30);
            while Instant::now() < hold {
                // Claim whatever the revoking subtasks release; errors
                // under the fault plan just retry next poll.
                let _ = member.poll_rebalance(|_| Ok(()), |_| Ok(()));
                std::thread::yield_now();
            }
            while member.leave().is_err() {
                std::thread::yield_now();
            }
        }
    });

    let env = rill::StreamExecutionEnvironment::local();
    env.set_parallelism(2);
    let source = rill::BrokerSource::new(broker.clone(), "input")
        .consumer_group(GROUP, AssignmentStrategy::Range);
    env.add_source(source)
        .map(|v: Bytes| v)
        .add_sink(rill::BrokerSink::new(broker.clone(), "rebalance-out"));
    env.execute("chaos-rebalance").unwrap();
    disturber.join().unwrap();
    broker.clear_fault_plan();

    let mut got_sorted: Vec<Bytes> = broker
        .fetch("rebalance-out", 0, 0, 100_000)
        .unwrap()
        .into_iter()
        .map(|stored| stored.record.value)
        .collect();
    got_sorted.sort();
    assert_eq!(
        got_sorted, expected_sorted,
        "a mid-run rebalance under faults must not lose or duplicate records"
    );
}

/// Kill-the-leader phase: every cell of the matrix — all six
/// implementations, all four queries — must produce the byte-identical
/// fault-free reference while a chaos thread repeatedly fails the
/// machine hosting the current partition leader (YARN node failure +
/// broker kill + delayed restart on the replacement host). Epoch-fenced
/// elections, the committed-read high-watermark, and idempotent client
/// retries have to make the crashes invisible in the results.
#[test]
fn all_impls_match_reference_across_leader_kills() {
    use streambench_core::FailoverConfig;

    let mut elections = 0u64;
    for query in Query::ALL {
        let config = FailoverConfig {
            records: 800,
            query,
            kills_per_cell: 2,
            hold_millis: 5,
            seed: SEED,
            ..FailoverConfig::default()
        };
        let report = streambench_core::run_failover(&config).unwrap();
        assert_eq!(report.cells.len(), 6, "all six implementation variants");
        for cell in &report.cells {
            assert!(
                cell.output_ok,
                "{} must match the reference byte-for-byte across leader kills \
                 ({query}; {} kills, epoch {})",
                cell.setup, cell.kills, cell.input_epoch
            );
            assert!(cell.kills >= 1, "{}: no kill landed", cell.setup);
            assert_eq!(
                cell.unavailability_micros.len(),
                cell.kills as usize,
                "every kill measures one unavailability window"
            );
            elections += cell.input_epoch;
        }
    }
    assert!(
        elections > 0,
        "at least one input-partition election must have happened"
    );
}

/// End-of-suite gate for the `check-sync` build: the batched data plane
/// exercised above must leave the lock-order graph acyclic and every
/// append witness untripped. Named `zzz_` so libtest's alphabetical
/// order runs it last (CI passes `--test-threads=1`).
#[cfg(feature = "check-sync")]
#[test]
fn zzz_sync_checker_is_clean_after_batch_equivalence() {
    parking_lot::sync_check::assert_clean("batch_equivalence suite");
    println!("{}", parking_lot::sync_check::report());
}
