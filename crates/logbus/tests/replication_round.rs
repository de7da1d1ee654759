//! What one `Acks::All` produce on a cluster costs in modeled network
//! time: the client's round trip to the leader plus **one** replication
//! round, however many followers there are. Followers fetch concurrently,
//! so the round is its longest leg — a latency fault drawn for one
//! follower lengthens the round, and the healthy legs hide under it.
//!
//! Every broker's round trip is 2 ms. Lower bounds are exact (the spins
//! guarantee them) and hold for every produce; upper bounds are checked
//! against the fastest of a few produces, which keeps a preempted spin
//! on a busy host from failing the test.

use logbus::{Cluster, ClusterConfig, FaultPlan, Record, TopicConfig};
use std::time::{Duration, Instant};

const RTT: Duration = Duration::from_millis(2);
const PRODUCES: usize = 5;

/// `brokers` brokers at [`RTT`], topic `t` replicated on all of them.
fn cluster(brokers: u32) -> Cluster {
    let cluster = Cluster::new(ClusterConfig { brokers });
    cluster
        .create_topic("t", TopicConfig::default().replication_factor(brokers))
        .unwrap();
    for b in 0..brokers as usize {
        cluster
            .broker(b)
            .set_request_latency_micros(RTT.as_micros() as u64);
    }
    cluster
}

/// Times [`PRODUCES`] one-record `Acks::All` produces, asserting each
/// took at least `floor`; returns the fastest.
fn fastest_produce(cluster: &Cluster, floor: Duration) -> Duration {
    (0..PRODUCES)
        .map(|i| {
            let started = Instant::now();
            cluster
                .produce("t", 0, Record::from_value(format!("r{i}")))
                .unwrap();
            let took = started.elapsed();
            assert!(took >= floor, "produce {i} took {took:?}, under {floor:?}");
            took
        })
        .min()
        .unwrap()
}

#[test]
fn rf3_produce_pays_one_replication_round() {
    let cluster = cluster(3);
    let fastest = fastest_produce(&cluster, 2 * RTT);
    assert!(fastest < 3 * RTT, "fastest RF-3 produce took {fastest:?}");
    assert_eq!(cluster.high_watermark_of("t", 0), Ok(PRODUCES as u64));
}

#[test]
fn rf5_produce_pays_one_replication_round() {
    let cluster = cluster(5);
    let fastest = fastest_produce(&cluster, 2 * RTT);
    assert!(fastest < 3 * RTT, "fastest RF-5 produce took {fastest:?}");
    assert_eq!(cluster.high_watermark_of("t", 0), Ok(PRODUCES as u64));
}

#[test]
fn a_slow_follower_is_the_round() {
    const EXTRA: Duration = Duration::from_millis(3);
    let cluster = cluster(3);
    let leader = cluster.leader_of("t", 0).unwrap();
    // One follower draws a 3 ms latency fault on every replication
    // fetch, and no other fault.
    let mut plan = FaultPlan::seeded(3);
    plan.produce_error = 0.0;
    plan.fetch_error = 0.0;
    plan.metadata_error = 0.0;
    plan.ack_loss = 0.0;
    plan.duplicate = 0.0;
    plan.extra_latency = 1.0;
    let extra = EXTRA.as_micros() as u64;
    plan.extra_latency_micros = extra..extra + 1;
    cluster.broker((leader + 1) % 3).install_fault_plan(plan);
    let fastest = fastest_produce(&cluster, RTT + (RTT + EXTRA));
    assert!(
        fastest < 3 * RTT + EXTRA,
        "fastest produce past a slow follower took {fastest:?}"
    );
    assert_eq!(cluster.high_watermark_of("t", 0), Ok(PRODUCES as u64));
}

/// End-of-suite gate for the `check-sync` build: each round's copies
/// take the leader's and a follower's partition locks in address order,
/// and the lock-order graph must stay acyclic.
/// Named `zzz_` so libtest's alphabetical order runs it last (CI passes
/// `--test-threads=1`).
#[cfg(feature = "check-sync")]
#[test]
fn zzz_sync_checker_is_clean_after_replication_rounds() {
    parking_lot::sync_check::assert_clean("logbus replication round suite");
    println!("{}", parking_lot::sync_check::report());
}
