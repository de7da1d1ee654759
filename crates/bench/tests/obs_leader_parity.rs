//! Disabled-path parity for the sharded broker's per-partition leader
//! and group-coordinator telemetry. The append contention probe
//! (`logbus.leader.*`) and the rebalance instruments (`logbus.group.*`)
//! sit on the hottest paths of the sharded data plane, so they are
//! behind the `obs::enabled()` runtime gate: with instrumentation off a
//! full sharded produce + rebalance workload must leave the registry
//! dark, and with it on every append must be classified exactly once as
//! contended or uncontended.
//!
//! Separate test binary (not a second `#[test]` in `obs_parity.rs`)
//! because the obs switch is process-global and libtest runs tests of
//! one binary in shared-process threads.

use logbus::{Broker, Bus, GroupMember, Record, TopicConfig};
use std::sync::Arc;

const PARTITIONS: u32 = 8;
const APPENDS_PER_PARTITION: u64 = 50;

/// Sharded produce across every partition plus a join/leave rebalance
/// cycle — the workload whose instruments are under test.
fn drive_sharded_workload(broker: &Broker) {
    for p in 0..PARTITIONS {
        let writer = broker.partition_writer("t", p).unwrap();
        for i in 0..APPENDS_PER_PARTITION {
            writer
                .produce(Record::from_value(format!("{p}-{i}").into_bytes()))
                .unwrap();
        }
    }
    let bus: Arc<dyn Bus> = Arc::new(broker.clone());
    let mut a = GroupMember::join(bus.clone(), "parity-group", "a", &["t"]).unwrap();
    let mut b = GroupMember::join(bus, "parity-group", "b", &["t"]).unwrap();
    for _ in 0..8 {
        a.poll_rebalance(|_| Ok(()), |_| Ok(())).unwrap();
        b.poll_rebalance(|_| Ok(()), |_| Ok(())).unwrap();
    }
    b.leave().unwrap();
    a.leave().unwrap();
}

#[test]
fn leader_and_group_instruments_obey_the_runtime_gate() {
    assert!(!obs::enabled(), "obs must default to disabled");

    let broker = Broker::new();
    broker
        .create_topic("t", TopicConfig::default().partitions(PARTITIONS))
        .unwrap();
    drive_sharded_workload(&broker);

    let snapshot = obs::global().registry().snapshot();
    assert!(
        !snapshot
            .counters
            .keys()
            .any(|k| k.starts_with("logbus.leader.")),
        "disabled run resolved leader counters: {:?}",
        snapshot.counters.keys().collect::<Vec<_>>()
    );
    assert!(
        !snapshot
            .counters
            .keys()
            .any(|k| k.starts_with("logbus.group.")),
        "disabled run resolved group counters"
    );
    assert!(
        !snapshot
            .gauges
            .keys()
            .any(|k| k.starts_with("logbus.group.")),
        "disabled run resolved the group generation gauge"
    );

    // Same workload with the gate open: the leader path classifies
    // every append exactly once, and the coordinator counts each
    // membership change. (Under the obs `noop` feature the switch is
    // compile-time false and this half is vacuously skipped.)
    obs::set_enabled(true);
    if obs::enabled() {
        obs::global().reset();
        let broker = Broker::new();
        broker
            .create_topic("t", TopicConfig::default().partitions(PARTITIONS))
            .unwrap();
        drive_sharded_workload(&broker);

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
        let rebalances = snapshot
            .counters
            .get("logbus.group.rebalances")
            .copied()
            .unwrap_or(0);
        // Two joins and two leaves, each a membership change.
        assert!(
            rebalances >= 4,
            "two joins + two leaves must count at least 4 rebalances, got {rebalances}"
        );
        assert!(
            snapshot.gauges.contains_key("logbus.group.generation"),
            "enabled run tracks the assignment generation gauge"
        );
        obs::set_enabled(false);
        obs::global().reset();
    }
}
