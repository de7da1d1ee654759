//! Disabled-path parity for the broker's per-partition leader telemetry.
//! The append contention probe (`logbus.leader.*`) sits on the hottest
//! path of the data plane, so it is behind the `obs::enabled()` runtime
//! gate: with instrumentation off a produce workload across every
//! partition must leave the registry dark, and with it on every append
//! must be classified exactly once as contended or uncontended.
//!
//! Separate test binary (not a second `#[test]` in `obs_parity.rs`)
//! because the obs switch is process-global and libtest runs tests of
//! one binary in shared-process threads.

use logbus::{Broker, Record, TopicConfig};

const PARTITIONS: u32 = 8;
const APPENDS_PER_PARTITION: u64 = 50;

/// Produce across every partition — the workload whose instruments are
/// under test.
fn drive_partitioned_workload(broker: &Broker) {
    for p in 0..PARTITIONS {
        let writer = broker.partition_writer("t", p).unwrap();
        for i in 0..APPENDS_PER_PARTITION {
            writer
                .produce(Record::from_value(format!("{p}-{i}").into_bytes()))
                .unwrap();
        }
    }
}

#[test]
fn leader_instruments_obey_the_runtime_gate() {
    assert!(!obs::enabled(), "obs must default to disabled");

    let broker = Broker::new();
    broker
        .create_topic("t", TopicConfig::default().partitions(PARTITIONS))
        .unwrap();
    drive_partitioned_workload(&broker);

    let snapshot = obs::global().registry().snapshot();
    assert!(
        !snapshot
            .counters
            .keys()
            .any(|k| k.starts_with("logbus.leader.")),
        "disabled run resolved leader counters: {:?}",
        snapshot.counters.keys().collect::<Vec<_>>()
    );

    // Same workload with the gate open: the leader path classifies
    // every append exactly once. (Under the obs `noop` feature the switch is
    // compile-time false and this half is vacuously skipped.)
    obs::set_enabled(true);
    if obs::enabled() {
        obs::global().reset();
        let broker = Broker::new();
        broker
            .create_topic("t", TopicConfig::default().partitions(PARTITIONS))
            .unwrap();
        drive_partitioned_workload(&broker);

        let snapshot = obs::global().registry().snapshot();
        let contended = snapshot
            .counters
            .get("logbus.leader.append_contended")
            .copied()
            .unwrap_or(0);
        let uncontended = snapshot
            .counters
            .get("logbus.leader.append_uncontended")
            .copied()
            .unwrap_or(0);
        assert_eq!(
            contended + uncontended,
            u64::from(PARTITIONS) * APPENDS_PER_PARTITION,
            "every append must be classified exactly once as contended or uncontended"
        );
        obs::set_enabled(false);
        obs::global().reset();
    }
}
