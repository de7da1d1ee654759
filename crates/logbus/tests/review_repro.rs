//! Review repro: stale `synced` on a dead replica survives an election
//! that picks a less-caught-up leader, letting the restarted replica
//! rejoin with a divergent log and later serve different bytes below
//! the old high-watermark.

use logbus::{Cluster, ClusterConfig, FaultPlan, Record, TopicConfig};

#[test]
fn committed_reads_diverge_after_stale_synced_rejoin() {
    let cluster = Cluster::new(ClusterConfig { brokers: 3 });
    cluster
        .create_topic("t", TopicConfig::default().replication_factor(3))
        .unwrap();

    let acks_all = cluster.partition_writer("t", 0).unwrap();
    let reader = cluster.partition_reader("t", 0).unwrap();
    // Record 0 fully replicated.
    acks_all.produce(Record::from_value("a")).unwrap();

    let leader = cluster.leader_of("t", 0).unwrap();
    // Replica positions are (leader, leader+1, leader+2) mod 3.
    let b = (leader + 1) % 3;
    let c = (leader + 2) % 3;

    // Follower C errors every replication fetch: stays alive and
    // in-sync, but lags.
    let mut plan = FaultPlan::seeded(1);
    plan.produce_error = 1.0;
    plan.fetch_error = 0.0;
    plan.metadata_error = 0.0;
    plan.ack_loss = 0.0;
    plan.duplicate = 0.0;
    plan.extra_latency = 0.0;
    plan.max_consecutive = u32::MAX;
    cluster.broker(c).install_fault_plan(plan);

    // Record 1 = "b": lands on leader and B (synced=2), C lags at 1.
    let writer = cluster
        .partition_writer("t", 0)
        .unwrap()
        .with_acks(logbus::Acks::Leader);
    writer.produce(Record::from_value("b")).unwrap();
    assert_eq!(cluster.high_watermark_of("t", 0).unwrap(), 1);

    cluster.broker(c).clear_fault_plan();

    // Leader and B die; C (lagging, synced=1) is the only candidate.
    cluster.kill_broker(leader);
    cluster.kill_broker(b);

    // New record 1 = "x" on C's timeline.
    acks_all.produce(Record::from_value("x")).unwrap();
    let committed = reader.fetch(0, 10).unwrap();
    assert_eq!(&committed[1].record.value[..], b"x");
    let hw = cluster.high_watermark_of("t", 0).unwrap();
    assert_eq!(hw, 2);

    // B restarts: truncated only to its stale synced (=2), keeping "b".
    cluster.restart_broker(b);
    // Next produce "catches B up" starting from its stale synced.
    acks_all.produce(Record::from_value("y")).unwrap();

    // C dies; B gets elected.
    cluster.kill_broker(c);

    let reread = reader.fetch(0, 10).unwrap();
    // Offset 1 was committed-read as "x"; a correct log never changes it.
    assert_eq!(
        &reread[1].record.value[..],
        b"x",
        "committed offset 1 changed bytes after failover: {:?}",
        reread
            .iter()
            .map(|r| String::from_utf8_lossy(&r.record.value).into_owned())
            .collect::<Vec<_>>()
    );
}
