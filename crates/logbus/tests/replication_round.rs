//! What one `Acks::All` produce on a cluster costs in modeled network
//! time: the client's round trip to the leader plus **one** replication
//! round, however many followers there are. Followers fetch concurrently,
//! so the round is its longest leg — a latency fault drawn for one
//! follower lengthens the round, and the healthy legs hide under it.
//!
//! Every broker's round trip is 2 ms. Lower bounds are exact (the spins
//! guarantee them) and hold for every produce; an upper bound needs one
//! produce that fits it. Produces are sampled until one does, for at
//! most 10 s, so a spin preempted on a busy host costs another sample,
//! not the test, while a produce that pays a round too many never fits.

use logbus::{Cluster, ClusterConfig, FaultPlan, Record, TopicConfig};
use std::time::{Duration, Instant};

const RTT: Duration = Duration::from_millis(2);

/// Produces sampled at least, each held to the lower bound.
const PRODUCES: u64 = 5;

/// How long to keep sampling for a produce under the upper bound.
const PATIENCE: Duration = Duration::from_secs(10);

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

/// Times one-record `Acks::All` produces, asserting each took at least
/// `floor`: [`PRODUCES`] of them, then more until one took less than
/// `ceiling` or [`PATIENCE`] ran out. Returns the fastest and how many
/// were produced.
fn fastest_produce(cluster: &Cluster, floor: Duration, ceiling: Duration) -> (Duration, u64) {
    let deadline = Instant::now() + PATIENCE;
    let mut fastest = Duration::MAX;
    let mut produced = 0;
    while produced < PRODUCES || (fastest >= ceiling && Instant::now() < deadline) {
        let started = Instant::now();
        cluster
            .produce("t", 0, Record::from_value(format!("r{produced}")))
            .unwrap();
        let took = started.elapsed();
        assert!(
            took >= floor,
            "produce {produced} took {took:?}, under {floor:?}"
        );
        fastest = fastest.min(took);
        produced += 1;
    }
    (fastest, produced)
}

#[test]
fn rf3_produce_pays_one_replication_round() {
    let cluster = cluster(3);
    let (fastest, produced) = fastest_produce(&cluster, 2 * RTT, 3 * RTT);
    assert!(fastest < 3 * RTT, "fastest RF-3 produce took {fastest:?}");
    assert_eq!(cluster.high_watermark_of("t", 0), Ok(produced));
}

#[test]
fn rf5_produce_pays_one_replication_round() {
    let cluster = cluster(5);
    let (fastest, produced) = fastest_produce(&cluster, 2 * RTT, 3 * RTT);
    assert!(fastest < 3 * RTT, "fastest RF-5 produce took {fastest:?}");
    assert_eq!(cluster.high_watermark_of("t", 0), Ok(produced));
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
    let ceiling = 3 * RTT + EXTRA;
    let (fastest, produced) = fastest_produce(&cluster, RTT + (RTT + EXTRA), ceiling);
    assert!(
        fastest < ceiling,
        "fastest produce past a slow follower took {fastest:?}"
    );
    assert_eq!(cluster.high_watermark_of("t", 0), Ok(produced));
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
